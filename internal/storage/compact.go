// compact.go is the garbage collector of the segment log: superseded and
// tombstoned records accumulate in sealed segments until a merge rewrites
// the live ones into a single merge segment and deletes the rest.
//
// Survivors are rewritten as stand-alone commit units: a sealed segment
// holds only whole units, so their atomicity has nothing left to protect.
//
// Correctness hinges on recovery order: segments replay in ID order and
// later records win. The merge output takes the *lowest* sealed segment's
// ID, so every record written after the snapshot (they all live in the
// active segment, whose ID is higher) still supersedes the merged copies
// on replay. Keys updated or deleted mid-merge are detected at swap time
// by comparing index entries, so the merge never resurrects stale data.
//
// On disk the merge is installed by renaming it over the lowest sealed
// segment before any other segment is removed, and the rest go oldest
// first, so a crash at any step recovers every acknowledged write.
package storage

import (
	"fmt"
	"os"
	"sort"
)

// compactionDue reports whether sealed garbage has crossed the configured
// thresholds and, if so, takes the single-flight compaction slot for the
// caller, who must then run compactInBackground. Caller holds mu.
func (s *Store) compactionDue() bool {
	garbage := s.sealedBytes - s.sealedLive
	if s.opts.CompactGarbage < 0 || s.compacting || s.closed ||
		garbage < s.opts.CompactMinBytes || s.sealedBytes == 0 ||
		float64(garbage) < s.opts.CompactGarbage*float64(s.sealedBytes) {
		return false
	}
	s.compacting = true
	s.compactWG.Add(1)
	return true
}

// compactInBackground runs one merge pass and releases the slot
// compactionDue took.
func (s *Store) compactInBackground() {
	defer s.compactWG.Done()
	s.compact()
	s.mu.Lock()
	s.compacting = false
	s.mu.Unlock()
}

// Compact synchronously merges all sealed segments, rewriting live records
// and deleting superseded ones. Safe to call concurrently with reads and
// writes; concurrent updates simply make the merged copy garbage for the
// next round.
func (s *Store) Compact() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.compacting {
		s.mu.Unlock()
		s.compactWG.Wait()
		return nil
	}
	s.compacting = true
	s.compactWG.Add(1)
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.compacting = false
		s.mu.Unlock()
		s.compactWG.Done()
	}()
	return s.compact()
}

// mergeItem is one record the compactor carries from a sealed segment to
// the merge output.
type mergeItem struct {
	key   string
	old   indexEntry
	moved indexEntry
}

// compact performs one merge pass. See the file comment for the ordering
// argument.
func (s *Store) compact() error {
	// Snapshot: sealed segment set and the live entries residing in it.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	activeID := s.active.id
	sealed := make(map[int]*segment)
	minID := activeID
	for id, seg := range s.segs {
		if id != activeID {
			sealed[id] = seg
			if id < minID {
				minID = id
			}
		}
	}
	var items []mergeItem
	for key, e := range s.index {
		if _, ok := sealed[e.seg]; ok {
			items = append(items, mergeItem{key: key, old: e})
		}
	}
	s.mu.Unlock()
	if len(sealed) == 0 {
		return nil
	}

	// Rewrite live records into a temp file. Sealed records are immutable
	// and their read handles stay open (Close waits on compactWG), so
	// reading without the lock is safe.
	var mergePath string
	var mergeSize int64
	if len(items) > 0 {
		tmp, err := os.CreateTemp(s.opts.Path, "merge-*.tmp")
		if err != nil {
			return fmt.Errorf("storage: %w", err)
		}
		mergePath = tmp.Name()
		var off int64
		ok := false
		defer func() {
			if !ok {
				os.Remove(mergePath)
			}
		}()
		for i := range items {
			it := &items[i]
			buf := make([]byte, it.old.size)
			if _, err := sealed[it.old.seg].r.ReadAt(buf, it.old.off); err != nil {
				tmp.Close()
				return fmt.Errorf("storage: %w", err)
			}
			_, _, flags, err := decodeRecord(buf)
			if err != nil {
				tmp.Close()
				return err
			}
			if flags&flagMore != 0 {
				// The rest of its unit may be gone: rewrite it as a
				// commit unit of its own.
				sealRecord(buf, false)
			}
			if _, err := tmp.Write(buf); err != nil {
				tmp.Close()
				return fmt.Errorf("storage: %w", err)
			}
			it.moved = indexEntry{seg: minID, off: off, size: it.old.size,
				keyLen: it.old.keyLen, valLen: it.old.valLen}
			off += it.old.size
		}
		if s.opts.Sync != SyncNone {
			if err := s.opts.Fsync(tmp); err != nil {
				tmp.Close()
				return fmt.Errorf("storage: fsync: %w", err)
			}
		}
		if err := tmp.Close(); err != nil {
			return fmt.Errorf("storage: %w", err)
		}
		mergeSize = off
		ok = true
	}

	// Install the merge output over the lowest sealed segment. The rename
	// replaces seg-<minID> atomically, and it is made durable before any
	// other segment goes: from here on the merged survivors replay first
	// and whatever sealed segments are still on disk replay after them,
	// which changes nothing (each holds records at least as old as the
	// merged copies, each key's latest sealed record included). Open read
	// handles keep serving the old files until the swap below.
	var merged *os.File
	if mergePath != "" {
		dst := s.segPath(minID)
		if err := os.Rename(mergePath, dst); err != nil {
			os.Remove(mergePath)
			return fmt.Errorf("storage: %w", err)
		}
		if err := s.syncDir(); err != nil {
			return err
		}
		r, err := os.Open(dst)
		if err != nil {
			return fmt.Errorf("storage: %w", err)
		}
		merged = r
	}

	// Swap, under the write lock: point the index at the merged copies and
	// forget the sealed segments. Entries that changed since the snapshot
	// keep their newer location; their merged copies become garbage for
	// next time.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		if merged != nil {
			merged.Close()
		}
		return ErrClosed
	}
	for id, seg := range sealed {
		if seg.r != nil {
			seg.r.Close()
		}
		delete(s.segs, id)
	}
	if merged != nil {
		s.segs[minID] = &segment{id: minID, path: s.segPath(minID), r: merged, size: mergeSize}
		for _, it := range items {
			if cur, okc := s.index[it.key]; okc && cur == it.old {
				s.index[it.key] = it.moved
			}
		}
	}
	s.recomputeSealed()
	s.compactions++
	s.mu.Unlock()

	// Remove the superseded segments oldest first, each removal durable
	// before the next: a crash in between leaves a suffix of them, whose
	// tombstones still follow every put they cover.
	ids := make([]int, 0, len(sealed))
	for id := range sealed {
		if id != minID || merged == nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		if err := os.Remove(sealed[id].path); err != nil {
			return fmt.Errorf("storage: %w", err)
		}
		if err := s.syncDir(); err != nil {
			return err
		}
	}
	return nil
}

// syncDir fsyncs the storage directory through Options.Fsync so segment
// creation, renaming and removal are durable (skipped under SyncNone).
func (s *Store) syncDir() error {
	if s.opts.Sync == SyncNone {
		return nil
	}
	d, err := os.Open(s.opts.Path)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	defer d.Close()
	if err := s.opts.Fsync(d); err != nil {
		return fmt.Errorf("storage: fsync: %w", err)
	}
	return nil
}

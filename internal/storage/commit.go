// commit.go is the engine's one write path. Every mutation is a commit
// unit: a Batch of records written with one write(2), applied to the index
// all together, and replayed after a crash all or not at all (log.go).
// Append writes a unit and returns its commit sequence; Wait blocks until
// that sequence is durable; Apply, Put and Delete are Append then Wait.
//
// Durability is leader-driven group commit. A waiter that finds no fsync
// in flight runs one at once, and its outcome settles every unit appended
// before it began; units appended while it runs queue up behind it and are
// all settled by the next one. The number of units sharing an fsync
// therefore follows the load, and an idle writer pays exactly one fsync.
// Appending never waits for an fsync: the leader holds no lock while it
// runs, only the sync slot, which rotation and Close also claim before
// they retire the handle being synced.
package storage

import (
	"fmt"
	"time"
)

// Batch collects the records of one commit unit. The zero value is an
// empty batch; a batch may be appended any number of times. It is not safe
// for concurrent use.
type Batch struct {
	buf []byte // framed records; CRCs and continuation flags set by seal
	n   int
}

// Put adds a record storing value under key. Both are copied.
func (b *Batch) Put(key string, value []byte) {
	b.buf = appendRecord(b.buf, key, value, false)
	b.n++
}

// Delete adds a tombstone for key. It is written whether or not the key is
// live; filter with Store.Has to save the bytes.
func (b *Batch) Delete(key string) {
	b.buf = appendRecord(b.buf, key, nil, true)
	b.n++
}

// seal marks every record but the last as continued and writes the CRCs,
// returning the unit's bytes as they go to disk. A record recovery would
// reject as implausible fails the whole unit with ErrTooLarge.
func (b *Batch) seal() ([]byte, error) {
	for rec, i := b.buf, 1; i <= b.n; i++ {
		if keyLen, valLen := recordLens(rec); keyLen > maxKeyLen || valLen > maxValueLen {
			return nil, fmt.Errorf("%w: %d-byte key, %d-byte value (limits %d, %d)",
				ErrTooLarge, keyLen, valLen, maxKeyLen, maxValueLen)
		}
		size := recordSize(rec)
		sealRecord(rec[:size], i < b.n)
		rec = rec[size:]
	}
	return b.buf, nil
}

// failedRange is a run of commit sequences (lo, hi] whose fsync failed.
type failedRange struct {
	lo, hi uint64
	err    error
}

// Append writes b as one commit unit — one write(2), never straddling a
// segment — and applies it to the index; readers see all of it or none.
// It returns the unit's commit sequence for Wait and does not wait for
// durability itself. An empty batch writes nothing and returns sequence 0,
// which is always durable.
func (s *Store) Append(b *Batch) (uint64, error) {
	if b.n == 0 {
		return 0, nil
	}
	unit, err := b.seal()
	if err != nil {
		return 0, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	if s.active.size >= s.opts.SegmentBytes {
		if err := s.rotate(); err != nil {
			s.mu.Unlock()
			return 0, err
		}
	}
	if _, err := s.w.Write(unit); err != nil {
		// Cut a short write off again so that the next unit does not
		// land behind a broken one. Best effort: if this fails too,
		// recovery still stops at the broken unit.
		_ = s.w.Truncate(s.active.size)
		s.mu.Unlock()
		return 0, fmt.Errorf("storage: %w", err)
	}
	for rec := unit; len(rec) > 0; {
		size := recordSize(rec)
		key, value, flags := recordFields(rec[:size])
		s.accountReplace(key)
		if flags&flagTombstone != 0 {
			delete(s.index, key)
			s.dels++
		} else {
			s.index[key] = indexEntry{
				seg: s.active.id, off: s.active.size, size: int64(size),
				keyLen: len(key), valLen: len(value),
			}
			s.liveBytes += int64(size)
			s.puts++
		}
		s.active.size += int64(size)
		rec = rec[size:]
	}
	s.cmu.Lock()
	s.appended++
	seq := s.appended
	s.cmu.Unlock()
	compact := s.compactionDue()
	s.mu.Unlock()

	if compact {
		go s.compactInBackground()
	}
	return seq, nil
}

// Wait blocks until commit seq is durable per the sync mode and returns
// the outcome of the fsync that covered it: the first one that began after
// seq was appended. A failed fsync fails every commit it covered and no
// later one.
func (s *Store) Wait(seq uint64) error {
	if s.opts.Sync == SyncNone {
		return nil
	}
	s.cmu.Lock()
	defer s.cmu.Unlock()
	if seq > s.appended {
		return fmt.Errorf("storage: wait for commit %d, only %d appended", seq, s.appended)
	}
	for seq > s.settled {
		if s.syncing {
			s.synced.Wait()
			continue
		}
		// Lead: cover everything appended so far, or under SyncAlways
		// only up to this commit, so that later ones get their own.
		upTo := s.appended
		if s.opts.Sync == SyncAlways {
			upTo = seq
		}
		s.syncRound(upTo)
	}
	for _, f := range s.failed {
		if f.lo < seq && seq <= f.hi {
			return fmt.Errorf("storage: fsync: %w", f.err)
		}
	}
	return nil
}

// Apply appends b and waits for it to be durable.
func (s *Store) Apply(b *Batch) error {
	start := time.Now()
	seq, err := s.Append(b)
	if err != nil {
		return err
	}
	err = s.Wait(seq)
	s.observePut(time.Since(start))
	return err
}

// Put stores value under key, durably per the sync mode.
func (s *Store) Put(key string, value []byte) error {
	var b Batch
	b.Put(key, value)
	return s.Apply(&b)
}

// claimSync waits until no fsync is in flight. Caller holds cmu and, by
// keeping it, keeps the sync slot free.
func (s *Store) claimSync() {
	for s.syncing {
		s.synced.Wait()
	}
}

// syncRound fsyncs the active handle with the sync slot held and cmu
// released, then settles every commit up to upTo with the outcome. Caller
// holds cmu and has seen the slot free.
func (s *Store) syncRound(upTo uint64) error {
	s.syncing = true
	w := s.w
	s.cmu.Unlock()
	err := s.opts.Fsync(w)
	s.cmu.Lock()
	s.syncing = false
	s.syncs++
	if upTo > s.settled {
		if err != nil {
			if n := len(s.failed); n > 0 && s.failed[n-1].hi == s.settled {
				s.failed[n-1].hi, s.failed[n-1].err = upTo, err
			} else {
				s.failed = append(s.failed, failedRange{lo: s.settled, hi: upTo, err: err})
			}
		}
		s.settled = upTo
	}
	s.synced.Broadcast()
	return err
}

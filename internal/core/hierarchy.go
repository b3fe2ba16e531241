package core

import (
	"repro/internal/buffer"
	"repro/internal/oodb"
	"repro/internal/replacement"
)

// Hierarchy is one client's two-level local store (§3–§4): a small LRU
// memory buffer in front of the byte-budgeted storage Cache; under NC the
// buffer is all there is. The simulated client and the live store's
// per-client session are both this type, so the order in which a probe
// touches the levels and an install fills them is written once. It takes no
// locks and reads no clock: callers serialize access and pass the time in.
// It holds only what it caches: an install's working memory is the Scratch
// its caller hands it, shared by every hierarchy the caller drives from one
// goroutine.
type Hierarchy struct {
	store *Cache // nil under NC
	mem   *buffer.LRU[oodb.Item, Entry]
	s     *Scratch // batch: the reply being installed; Stage appends, Commit drains
}

// NewHierarchy builds the hierarchy for granularity g: a storage cache of
// storageBytes under policy (none under NC) and a memory buffer of memObjects
// objects' worth of entries — proportionally more under attribute items. It
// installs in s, which must not be used from another goroutine.
func NewHierarchy(g Granularity, storageBytes int, policy replacement.Policy, memObjects int, s *Scratch) *Hierarchy {
	h := &Hierarchy{s: s}
	if g != NoCache {
		h.store = newCache(storageBytes, policy, s)
	}
	if g.UsesAttributeItems() {
		memObjects = memObjects * oodb.ObjectSize / oodb.AttrSize
	}
	h.mem = buffer.NewLRU[oodb.Item, Entry](memObjects)
	return h
}

// Storage exposes the storage cache (nil under NC) for its statistics.
func (h *Hierarchy) Storage() *Cache { return h.store }

// Probe looks item up for a read at time now: the storage cache first
// (recording the access with its replacement policy), then the memory buffer
// alone — NC, or a copy that outlived its storage slot. fromStorage reports
// that only the storage cache held the copy, which is then promoted into the
// buffer; the simulator charges disk rather than memory delay for it.
func (h *Hierarchy) Probe(it oodb.Item, now float64) (e Entry, st LookupState, fromStorage bool) {
	if h.store != nil {
		if p, st := h.store.Lookup(it, now); st != Miss {
			_, inMem := h.mem.GetOrPut(it, *p)
			return *p, st, !inMem
		}
	}
	if e, ok := h.mem.Get(it); ok {
		if e.ValidAt(now) {
			return e, Hit, false
		}
		return e, Stale, false
	}
	return Entry{}, Miss, false
}

// Peek returns the copy either level holds without promoting it or touching
// replacement state.
func (h *Hierarchy) Peek(it oodb.Item) (Entry, bool) {
	if h.store != nil {
		if e, ok := h.store.Peek(it); ok {
			return *e, true
		}
	}
	return h.mem.Peek(it)
}

// Stage adds one item of a delivered reply to the install Commit finishes.
// An item the client asked for was just consumed and enters the memory
// buffer too; a storageOnly one (a prefetch) stays out, so it cannot flush
// it. The reply is staged in the Scratch, so no other hierarchy sharing it
// may Stage or Commit before this one's Commit.
func (h *Hierarchy) Stage(it oodb.Item, e Entry, storageOnly bool) {
	if !storageOnly {
		h.s.mem = append(h.s.mem, int32(len(h.s.batch)))
	}
	h.s.batch = append(h.s.batch, BatchEntry{Item: it, Entry: e})
}

// Commit installs the staged reply at time now: its consumed items in the
// memory buffer, and all of it in the storage cache as one batch, so that
// its victims are selected in bulk.
func (h *Hierarchy) Commit(now float64) {
	h.fill()
	if h.store != nil {
		h.store.InsertBatch(h.s.batch, now)
	}
	h.s.batch, h.s.mem = h.s.batch[:0], h.s.mem[:0]
}

// fill leaves the memory buffer as one Put of each staged consumed item,
// in staging order, would: the last copy of each of the newest items, up
// to the buffer's capacity, at the front, newest first, ahead of what the
// buffer held before and the reply does not replace. Only those copies
// are put, oldest first; when they fill the buffer, nothing it held
// before survives, so it is emptied first and no put evicts.
func (h *Hierarchy) fill() {
	s := h.s
	s.seen.Reset()
	k := len(s.mem)
	for i := len(s.mem) - 1; i >= 0 && len(s.mem)-k < h.mem.Capacity(); i-- {
		if s.seen.Set(s.batch[s.mem[i]].Item.Key(), 0) {
			k--
			s.mem[k] = s.mem[i]
		}
	}
	kept := s.mem[k:]
	if len(kept) == h.mem.Capacity() {
		h.mem.Clear()
	}
	for _, j := range kept {
		h.mem.Put(s.batch[j].Item, s.batch[j].Entry)
	}
}

// Put caches a single consumed item in both levels at time now, evicting one
// victim at a time where Commit selects them in bulk.
func (h *Hierarchy) Put(it oodb.Item, e Entry, now float64) {
	if h.store != nil {
		h.store.Insert(it, e, now)
	}
	h.mem.Put(it, e)
}

// Refresh overwrites the copy of item on every level that holds one,
// reporting whether any did; an absent item stays absent.
func (h *Hierarchy) Refresh(it oodb.Item, e Entry) bool {
	held := false
	if h.store != nil {
		if p, ok := h.store.Peek(it); ok {
			*p = e
			held = true
		}
	}
	if h.mem.Contains(it) {
		h.mem.Put(it, e)
		held = true
	}
	return held
}

// Remove drops item from both levels, reporting whether either held it.
func (h *Hierarchy) Remove(it oodb.Item) bool {
	inStore := h.store != nil && h.store.Remove(it)
	inMem := h.mem.Remove(it)
	return inStore || inMem
}

// VoidLeases expires every lease at time now: storage entries keep their
// bytes — still readable while disconnected or degraded — but must be
// revalidated before they count as hits; the memory buffer is dropped.
func (h *Hierarchy) VoidLeases(now float64) {
	if h.store != nil {
		h.store.ForEach(func(_ oodb.Item, e *Entry) bool {
			if e.ExpiresAt > now {
				e.ExpiresAt = now
			}
			return true
		})
	}
	h.mem.Clear()
}

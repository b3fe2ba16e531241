// Package broadcast implements the push-based dissemination substrate the
// paper's introduction frames as the complement of its point-to-point
// design (§1): "items of interest to most mobile clients should be
// broadcast from a database server to multiple clients while items of
// interest to single client should be disseminated over dedicated
// channels on demand."
//
// A Program is a flat broadcast disk: a fixed list of database items
// cycled periodically over a dedicated broadcast channel. The schedule is
// strictly periodic, so a client needing item x does not tune in
// continuously — it computes x's next slot and wakes exactly then,
// spending receive energy only on the slots it consumes. A copy picked up
// from the air is valid for one cycle (the next revolution would refresh
// it), which gives broadcast items a natural lease.
package broadcast

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/oodb"
)

// Program is a periodic flat broadcast schedule.
type Program struct {
	items   []oodb.Item
	slotOf  oodb.ItemIndex
	slotDur float64 // airtime per item, seconds
	cycle   float64 // full revolution, seconds
	start   float64 // first revolution begins here
}

// New builds a program broadcasting the given items in order over a
// channel of the given bandwidth, starting at virtual time start. Each
// slot carries one item framed like a downlink reply entry.
func New(items []oodb.Item, bandwidthBps, start float64) *Program {
	if len(items) == 0 {
		panic("broadcast: a program needs at least one item")
	}
	if bandwidthBps <= 0 {
		panic("broadcast: bandwidth must be positive")
	}
	if start < 0 {
		panic("broadcast: start must be non-negative")
	}
	p := &Program{items: append([]oodb.Item(nil), items...), start: start}
	// Slots are fixed-width at the size of the largest item so the
	// schedule stays strictly periodic (simple flat disk).
	maxBytes := 0
	for i, it := range p.items {
		if !p.slotOf.Set(it.Key(), int32(i)) {
			panic(fmt.Sprintf("broadcast: duplicate item %v in program", it))
		}
		if b := network.ReplyEntrySize(it); b > maxBytes {
			maxBytes = b
		}
	}
	p.slotDur = float64(maxBytes+network.HeaderSize) * 8 / bandwidthBps
	p.cycle = p.slotDur * float64(len(p.items))
	return p
}

// Covers reports whether the program carries item.
func (p *Program) Covers(it oodb.Item) bool {
	_, ok := p.slotOf.Get(it.Key())
	return ok
}

// Len returns the number of items in one revolution.
func (p *Program) Len() int { return len(p.items) }

// Cycle returns the revolution period in seconds — also the validity lease
// of a copy picked off the air.
func (p *Program) Cycle() float64 { return p.cycle }

// SlotBytes returns the wire size of one slot.
func (p *Program) SlotBytes() int {
	return int(p.slotDur * network.WirelessBandwidthBps / 8)
}

// NextDelivery returns the absolute time at which the next complete
// transmission of item finishes, for a client that starts listening at
// `now`: the end of the earliest slot whose *start* is at or after now
// (a partially missed slot cannot be decoded). It panics if the program
// does not cover item.
func (p *Program) NextDelivery(it oodb.Item, now float64) float64 {
	slot, ok := p.slotOf.Get(it.Key())
	if !ok {
		panic(fmt.Sprintf("broadcast: item %v not in program", it))
	}
	// Slot ends in revolution k: e_k = start + (slot+1)*slotDur + k*cycle;
	// catchable iff its start e_k - slotDur >= now. The epsilon absorbs
	// floating-point drift when a client tunes in exactly at a slot
	// boundary (e.g. right after consuming the previous slot).
	const eps = 1e-9
	e0 := p.start + float64(slot+1)*p.slotDur
	k := math.Ceil((now - (e0 - p.slotDur) - eps) / p.cycle)
	if k < 0 {
		k = 0
	}
	return e0 + k*p.cycle
}

// MeanWait returns the expected waiting time for a uniformly random item
// request (half a revolution plus one slot) — used for capacity planning
// and sanity tests.
func (p *Program) MeanWait() float64 { return p.cycle/2 + p.slotDur }

// Register wires the air channel's program shape into an observability
// registry under the given series prefix: items per revolution, cycle
// period (the natural lease), slot size, and expected tune-in wait. The
// values are static for a flat disk, so the series double as manifest
// facts; consumption counters (reads answered from the air) live with the
// clients that tune in. No-op when reg is disabled.
func (p *Program) Register(reg *obs.Registry, prefix string) {
	if !reg.Enabled() {
		return
	}
	reg.Gauge(prefix+".items", func() float64 { return float64(p.Len()) })
	reg.Gauge(prefix+".cycle_s", p.Cycle)
	reg.Gauge(prefix+".slot_bytes", func() float64 { return float64(p.SlotBytes()) })
	reg.Gauge(prefix+".mean_wait_s", p.MeanWait)
}

// UpdateWindow accumulates a server's write stream for the windowed
// IR-over-broadcast coherence scheme: each invalidation report at time T
// carries the distinct items written during the trailing window (T−W, T].
// The log is a chronological queue trimmed on every report and compacted
// once its expired prefix is half of it, so memory is bounded by the write
// rate times the window, not by the run length.
type UpdateWindow struct {
	window float64
	events []updateEvent // chronological; events[:head] expired
	head   int
	seen   oodb.ItemIndex // scratch for per-report dedup
	keys   []uint64       // scratch: the report's distinct item keys
	items  []oodb.Item    // scratch for the returned report
}

type updateEvent struct {
	at   float64
	item oodb.Item
}

// NewUpdateWindow returns a log covering a trailing window of the given
// length in simulated seconds.
func NewUpdateWindow(window float64) *UpdateWindow {
	if window <= 0 {
		panic("broadcast: update window must be positive")
	}
	return &UpdateWindow{window: window}
}

// Observe appends a write of item at virtual time now. Observations must
// arrive in non-decreasing time order.
func (w *UpdateWindow) Observe(it oodb.Item, now float64) {
	w.events = append(w.events, updateEvent{at: now, item: it})
}

// Report returns the distinct items written in (now−window, now], in
// canonical (OID, Attr) order so report contents are independent of
// observation interleaving. Events that fell out of the window are
// discarded; the returned slice is reused by the next call.
func (w *UpdateWindow) Report(now float64) []oodb.Item {
	cutoff := now - w.window
	for w.head < len(w.events) && w.events[w.head].at <= cutoff {
		w.head++
	}
	if 2*w.head >= len(w.events) {
		n := copy(w.events, w.events[w.head:])
		w.events, w.head = w.events[:n], 0
	}
	// Item.Key order is (OID, Attr) order, as the attribute is the key's
	// low byte: the distinct items are sorted as keys.
	w.keys = w.keys[:0]
	w.seen.Reset()
	for _, ev := range w.events[w.head:] {
		if w.seen.Set(ev.item.Key(), 0) {
			w.keys = append(w.keys, ev.item.Key())
		}
	}
	slices.Sort(w.keys)
	w.items = w.items[:0]
	for _, k := range w.keys {
		w.items = append(w.items, oodb.Item{OID: oodb.OID(k >> 8), Attr: oodb.AttrID(k)})
	}
	return w.items
}

// ReportBytes returns the wire size of an invalidation report naming n
// items: one frame header plus an (OID, attribute-ref) pair per item.
func ReportBytes(n int) int {
	return network.HeaderSize + n*(network.OIDSize+network.AttrRefSize)
}

// HotAttrItems is a helper for assembling programs: the cross product of
// the given objects with the first nAttrs primitive attributes (the
// hottest ranks under the workload's skewed attribute distribution).
func HotAttrItems(objects []oodb.OID, nAttrs int) []oodb.Item {
	if nAttrs < 1 || nAttrs > oodb.NumPrimAttrs {
		panic("broadcast: nAttrs out of range")
	}
	items := make([]oodb.Item, 0, len(objects)*nAttrs)
	for _, oid := range objects {
		for a := 0; a < nAttrs; a++ {
			items = append(items, oodb.AttrItem(oid, oodb.AttrID(a)))
		}
	}
	return items
}

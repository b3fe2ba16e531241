package replacement

// This file implements the paper's proposed duration-score policies (§3.3):
// Mean, Window(W) and EWMA(α), on the indexed victim-selection engine in
// indexed.go. Each scores an item by a statistic over its access
// inter-arrival durations; the victim is the item with the highest
// *effective* mean duration, where the effective value folds in the open
// interval since the last access (see the package comment).
//
// The open interval makes the scores time-varying, so unlike LRU these
// heaps cannot rank items outright. Instead each class keys on the
// time-invariant part of the score — the `now` term is common to the whole
// class and moves every item's score in lockstep — and the bound-pruned
// search folds `now` back in at eviction time, visiting only the heap
// prefix whose bound can still beat the current best. Scoring formulas
// live in states.go, shared with the reference scans in
// reference_test.go.

import (
	"fmt"
	"math"

	"repro/internal/oodb"
	"repro/internal/stats"
)

// ---------------------------------------------------------------- Mean ----

// meanPolicy implements the paper's mean scheme: the score is the cumulative
// mean inter-arrival duration, updated incrementally as
// M_{n+1} = (n·M_n + d_{n+1})/(n+1), and — crucially — only on accesses.
// An item whose accesses stop keeps its historical score ("every single
// trace from the beginning of the access history remains in effect", §3.3),
// which is exactly why the scheme collapses when the hot spot changes
// (Experiment #2). Items with no recorded duration yet are scored by the
// open interval since their only access so they remain evictable.
//
// Indexing: settled items (n > 0) score exactly their mean — a constant —
// so they sit in a class keyed by −mean with an exact bound; fresh items
// (single access) score by the open interval and are keyed by last access.
type meanPolicy struct {
	victimCore[meanState]
}

// NewMean returns the mean replacement scheme.
func NewMean() Policy {
	p := &meanPolicy{}
	p.classes = []classHeap{
		{sc: meanSettledScorer{p}},
		{sc: meanFreshScorer{p}},
	}
	return p
}

type meanSettledScorer struct{ p *meanPolicy }

func (sc meanSettledScorer) cutoff(now, best float64) float64 {
	return padCutoff(-best, now, best)
}
func (sc meanSettledScorer) eval(slot int32, now float64) float64 {
	return meanBadness(&sc.p.t.states[slot], now)
}

type meanFreshScorer struct{ p *meanPolicy }

func (sc meanFreshScorer) cutoff(now, best float64) float64 {
	return padCutoff(now-best, now, best)
}
func (sc meanFreshScorer) eval(slot int32, now float64) float64 {
	return meanBadness(&sc.p.t.states[slot], now)
}

func (p *meanPolicy) Name() string { return "mean" }

func (p *meanPolicy) OnInsert(it oodb.Item, now float64) {
	if slot, ok := p.t.lookup(it); ok {
		p.bump(slot, now)
		return
	}
	slot := p.t.add(it, meanState{last: now})
	p.grow()
	p.classes[1].heap.push(slot, now) // fresh
}

func (p *meanPolicy) OnAccess(it oodb.Item, now float64) {
	slot, ok := p.t.lookup(it)
	mustTracked(p, ok, it)
	p.bump(slot, now)
}

func (p *meanPolicy) bump(slot int32, now float64) {
	s := &p.t.states[slot]
	s.record(now)
	p.classes[1].heap.remove(slot) // no-op once settled
	p.classes[0].heap.update(slot, -s.mean)
}

// -------------------------------------------------------------- Window ----

// windowPolicy implements the paper's window scheme: the score is the mean
// inter-arrival duration over the W most recent durations, computed with
// the paper's own recurrence M' = M + (d_new − d_oldest)/W — note the fixed
// divisor W: a partially filled window is scored as if the missing
// durations were zero, which makes young items look hot until W accesses
// accumulate. The open interval since the last access joins the window at
// eviction time so abandoned items eventually age out. Storage per item is
// O(W) — the cost §3.3 points out; evicted items donate their window
// buffer to a free list so steady-state churn allocates nothing.
//
// Indexing: the fixed divisor makes the whole score affine in now:
// score = (now − key)/W with key = last − ΣW + oldest-if-full, so a single
// class with a padded bound covers every item.
type windowPolicy struct {
	victimCore[winState]
	w    int
	free []stats.Window // recycled buffers of removed items
}

// NewWindow returns the window scheme with the given window size.
func NewWindow(w int) Policy {
	if w < 1 {
		panic("replacement: window size must be >= 1")
	}
	p := &windowPolicy{w: w}
	p.classes = []classHeap{{sc: windowScorer{p}}}
	return p
}

type windowScorer struct{ p *windowPolicy }

func (sc windowScorer) cutoff(now, best float64) float64 {
	// Invert (now-key)/w + pad(key) >= best, doubling the bound's own pad
	// to absorb evaluating it at the cutoff instead of the true key.
	w := float64(sc.p.w)
	k := now - w*best
	k += w * (2e-9 + 2e-13*float64(sc.p.w+2)*(math.Abs(now)+math.Abs(k)))
	return padCutoff(k, now, best)
}
func (sc windowScorer) eval(slot int32, now float64) float64 {
	return windowBadness(&sc.p.t.states[slot], sc.p.w, now)
}

func (p *windowPolicy) keyOf(s *winState) float64 {
	k := s.last - s.win.Mean()*float64(s.win.Count())
	if s.win.Count() == s.win.Size() {
		k += s.win.Oldest()
	}
	return k
}

func (p *windowPolicy) Name() string { return fmt.Sprintf("win-%d", p.w) }

func (p *windowPolicy) OnInsert(it oodb.Item, now float64) {
	if slot, ok := p.t.lookup(it); ok {
		p.bump(slot, now)
		return
	}
	var win stats.Window
	if n := len(p.free); n > 0 {
		win = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		win = stats.MakeWindow(p.w)
	}
	slot := p.t.add(it, winState{win: win, last: now})
	p.grow()
	p.classes[0].heap.push(slot, p.keyOf(&p.t.states[slot]))
}

func (p *windowPolicy) OnAccess(it oodb.Item, now float64) {
	slot, ok := p.t.lookup(it)
	mustTracked(p, ok, it)
	p.bump(slot, now)
}

func (p *windowPolicy) bump(slot int32, now float64) {
	s := &p.t.states[slot]
	s.record(now)
	p.classes[0].heap.update(slot, p.keyOf(s))
}

// Remove is victimCore.Remove plus recycling the item's window buffer.
func (p *windowPolicy) Remove(it oodb.Item) {
	slot, ok := p.t.lookup(it)
	if !ok {
		return
	}
	win := p.t.states[slot].win // value copy owns the buffer after removal
	p.removeSlot(slot)
	win.Reset()
	p.free = append(p.free, win)
}

// ---------------------------------------------------------------- EWMA ----

// ewmaPolicy implements the paper's EWMA scheme: the score is the
// exponentially weighted moving average of inter-arrival durations,
// S ← α·S + (1−α)·d. O(1) state per item, fast adaptation — the policy the
// paper recommends.
//
// Indexing: score = α·S + (1−α)(now − last) = (1−α)·now − key with
// key = (1−α)·last − α·S, so settled items form one class with a padded
// bound; fresh items (score = open interval) are keyed by last access.
type ewmaPolicy struct {
	victimCore[ewmaState]
	alpha float64
}

// NewEWMA returns the EWMA scheme with retention weight alpha in [0, 1).
func NewEWMA(alpha float64) Policy {
	if alpha < 0 || alpha >= 1 {
		panic("replacement: EWMA alpha must be in [0,1)")
	}
	p := &ewmaPolicy{alpha: alpha}
	p.classes = []classHeap{
		{sc: ewmaSettledScorer{p}},
		{sc: ewmaFreshScorer{p}},
	}
	return p
}

type ewmaSettledScorer struct{ p *ewmaPolicy }

func (sc ewmaSettledScorer) cutoff(now, best float64) float64 {
	// Invert (1-α)·now - key + pad(key) >= best, doubling the bound's pad
	// to absorb evaluating it at the cutoff instead of the true key.
	k := (1-sc.p.alpha)*now - best
	k += 2e-9 + 2e-12*(math.Abs(now)+math.Abs(k))
	return padCutoff(k, now, best)
}
func (sc ewmaSettledScorer) eval(slot int32, now float64) float64 {
	return ewmaBadness(&sc.p.t.states[slot], sc.p.alpha, now)
}

type ewmaFreshScorer struct{ p *ewmaPolicy }

func (sc ewmaFreshScorer) cutoff(now, best float64) float64 {
	return padCutoff(now-best, now, best)
}
func (sc ewmaFreshScorer) eval(slot int32, now float64) float64 {
	return ewmaBadness(&sc.p.t.states[slot], sc.p.alpha, now)
}

func (p *ewmaPolicy) Name() string { return fmt.Sprintf("ewma-%g", p.alpha) }

func (p *ewmaPolicy) OnInsert(it oodb.Item, now float64) {
	if slot, ok := p.t.lookup(it); ok {
		p.bump(slot, now)
		return
	}
	slot := p.t.add(it, ewmaState{last: now})
	p.grow()
	p.classes[1].heap.push(slot, now) // fresh
}

func (p *ewmaPolicy) OnAccess(it oodb.Item, now float64) {
	slot, ok := p.t.lookup(it)
	mustTracked(p, ok, it)
	p.bump(slot, now)
}

func (p *ewmaPolicy) bump(slot int32, now float64) {
	s := &p.t.states[slot]
	s.record(p.alpha, now)
	p.classes[1].heap.remove(slot) // no-op once settled
	p.classes[0].heap.update(slot, (1-p.alpha)*s.last-p.alpha*s.value)
}

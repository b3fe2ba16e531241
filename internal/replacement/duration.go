package replacement

// This file implements the paper's proposed duration-score policies (§3.3):
// Mean, Window(W) and EWMA(α), on the indexed victim-selection engine in
// indexed.go. Each scores an item by a statistic over its access
// inter-arrival durations; the victim is the item with the highest
// *effective* mean duration, where the effective value folds in the open
// interval since the last access (see the package comment).
//
// The open interval makes the scores time-varying, so unlike LRU these
// classes cannot rank items outright. Instead each class keys on the
// time-invariant part of the score — the `now` term is common to the whole
// class and moves every item's score in lockstep — and the bound-pruned
// search folds `now` back in at eviction time, visiting only the key
// prefix whose bound can still beat the current best. Scoring formulas
// live in states.go, shared with the reference scans in
// reference_test.go.

import (
	"fmt"
	"math"

	"repro/internal/oodb"
	"repro/internal/stats"
)

// The classes of Mean and EWMA: settled items (at least one recorded
// duration), a heap, and fresh ones (a single access, scored by the open
// interval and keyed by last access, so their bound now − key is exact),
// an arrival run.
const settled, fresh = 0, 1

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
	p.init(p, "mean", byHeap, byArrival)
	return &keyed{core: p}
}

func (p *meanPolicy) enter(_ oodb.Item, now float64) meanState { return meanState{last: now} }

func (p *meanPolicy) place(slot int32) {
	s := &p.states[slot]
	if s.n == 0 {
		p.classes[fresh].update(slot, s.last)
		return
	}
	p.classes[fresh].remove(slot) // no-op once settled
	p.classes[settled].update(slot, -s.mean)
}

func (p *meanPolicy) touch(slot int32, now float64) {
	p.states[slot].record(now)
	p.place(slot)
}

func (p *meanPolicy) eval(slot int32, now float64) float64 {
	return meanBadness(&p.states[slot], now)
}

func (p *meanPolicy) cutoff(class int, now, best float64) float64 {
	if class == fresh {
		return padCutoff(now-best, now, best)
	}
	return padCutoff(-best, now, best)
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
	p.init(p, fmt.Sprintf("win-%d", w), byHeap)
	return &keyed{core: p}
}

// enter gives the item a recycled window buffer when one is free.
func (p *windowPolicy) enter(_ oodb.Item, now float64) winState {
	var win stats.Window
	if n := len(p.free); n > 0 {
		win = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		win = stats.MakeWindow(p.w)
	}
	return winState{win: win, last: now}
}

func (p *windowPolicy) place(slot int32) {
	s := &p.states[slot]
	k := s.last - s.win.Mean()*float64(s.win.Count())
	if s.win.Count() == s.win.Size() {
		k += s.win.Oldest()
	}
	p.classes[0].update(slot, k)
}

func (p *windowPolicy) touch(slot int32, now float64) {
	p.states[slot].record(now)
	p.place(slot)
}

func (p *windowPolicy) eval(slot int32, now float64) float64 {
	return windowBadness(&p.states[slot], p.w, now)
}

func (p *windowPolicy) cutoff(_ int, now, best float64) float64 {
	// Invert (now-key)/w + pad(key) >= best, doubling the bound's own pad
	// to absorb evaluating it at the cutoff instead of the true key.
	w := float64(p.w)
	k := now - w*best
	k += w * (2e-9 + 2e-13*float64(p.w+2)*(math.Abs(now)+math.Abs(k)))
	return padCutoff(k, now, best)
}

// Remove is victimCore.Remove plus recycling the slot's window buffer.
func (p *windowPolicy) Remove(slot int32) {
	win := p.states[slot].win // value copy owns the buffer after removal
	p.victimCore.Remove(slot)
	p.recycle(win)
}

func (p *windowPolicy) recycle(win stats.Window) {
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
	p.init(p, fmt.Sprintf("ewma-%g", alpha), byHeap, byArrival)
	return &keyed{core: p}
}

func (p *ewmaPolicy) enter(_ oodb.Item, now float64) ewmaState { return ewmaState{last: now} }

func (p *ewmaPolicy) place(slot int32) {
	s := &p.states[slot]
	if s.n == 0 {
		p.classes[fresh].update(slot, s.last)
		return
	}
	p.classes[fresh].remove(slot) // no-op once settled
	p.classes[settled].update(slot, (1-p.alpha)*s.last-p.alpha*s.value)
}

func (p *ewmaPolicy) touch(slot int32, now float64) {
	p.states[slot].record(p.alpha, now)
	p.place(slot)
}

func (p *ewmaPolicy) eval(slot int32, now float64) float64 {
	return ewmaBadness(&p.states[slot], p.alpha, now)
}

func (p *ewmaPolicy) cutoff(class int, now, best float64) float64 {
	if class == fresh {
		return padCutoff(now-best, now, best)
	}
	// Invert (1-α)·now - key + pad(key) >= best, doubling the bound's pad
	// to absorb evaluating it at the cutoff instead of the true key.
	k := (1-p.alpha)*now - best
	k += 2e-9 + 2e-12*(math.Abs(now)+math.Abs(k))
	return padCutoff(k, now, best)
}

package broadcast

import (
	"testing"

	"repro/internal/network"
	"repro/internal/oodb"
)

func TestUpdateWindowValidation(t *testing.T) {
	for _, w := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewUpdateWindow(%g) did not panic", w)
				}
			}()
			NewUpdateWindow(w)
		}()
	}
}

// A report names exactly the distinct items written inside the trailing
// window, sorted canonically regardless of write order.
func TestUpdateWindowReport(t *testing.T) {
	w := NewUpdateWindow(100)
	w.Observe(oodb.AttrItem(5, 1), 10)
	w.Observe(oodb.AttrItem(2, 3), 20)
	w.Observe(oodb.AttrItem(5, 1), 30) // duplicate write, reported once
	w.Observe(oodb.AttrItem(2, 0), 40)

	got := w.Report(50)
	want := []oodb.Item{oodb.AttrItem(2, 0), oodb.AttrItem(2, 3), oodb.AttrItem(5, 1)}
	if len(got) != len(want) {
		t.Fatalf("report = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("report[%d] = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
	if n := len(w.events) - w.head; n != 4 {
		t.Fatalf("%d events logged, want 4 (all events still in window)", n)
	}
}

// Events at or before now − window fall out; an exactly-boundary event is
// excluded (the window is half-open: (now−W, now]).
func TestUpdateWindowTrims(t *testing.T) {
	w := NewUpdateWindow(50)
	w.Observe(oodb.AttrItem(1, 0), 10)
	w.Observe(oodb.AttrItem(2, 0), 60)
	// At now=60 the cutoff is 10: the write at exactly the boundary is
	// already outside the half-open window.
	if got := w.Report(60); len(got) != 1 || got[0] != (oodb.AttrItem(2, 0)) {
		t.Fatalf("report at 60 = %v, want only the write at 60", got)
	}
	// At now=110 the cutoff is 60: the boundary write falls out too.
	if got := w.Report(110); len(got) != 0 {
		t.Fatalf("report at 110 = %v, want empty", got)
	}
	if n := len(w.events) - w.head; n != 0 {
		t.Fatalf("%d events logged after full trim", n)
	}
	// The log keeps accepting writes after a full reset.
	w.Observe(oodb.AttrItem(3, 2), 120)
	if got := w.Report(130); len(got) != 1 || got[0] != (oodb.AttrItem(3, 2)) {
		t.Fatalf("report after reset = %v", got)
	}
}

// Under continuous writes the window never empties, yet the log stays
// within a small multiple of the events the window holds: one write per
// second for 10^5 s, a report every 10 s, a 100 s window.
func TestUpdateWindowBoundedUnderSteadyWrites(t *testing.T) {
	const window, every, horizon = 100, 10, 100_000
	w := NewUpdateWindow(window)
	for now := 1; now <= horizon; now++ {
		w.Observe(oodb.AttrItem(oodb.OID(now%50), 0), float64(now))
		if now%every != 0 {
			continue
		}
		if got := w.Report(float64(now)); now >= window && len(got) != 50 {
			t.Fatalf("report at %d names %d items, want 50", now, len(got))
		}
		if c := cap(w.events); c > 4*window {
			t.Fatalf("at %d s the log holds capacity for %d events, want <= %d", now, c, 4*window)
		}
	}
}

func TestReportBytes(t *testing.T) {
	if got := ReportBytes(0); got != network.HeaderSize {
		t.Fatalf("ReportBytes(0) = %d, want bare header %d", got, network.HeaderSize)
	}
	per := network.OIDSize + network.AttrRefSize
	if got := ReportBytes(7); got != network.HeaderSize+7*per {
		t.Fatalf("ReportBytes(7) = %d, want %d", got, network.HeaderSize+7*per)
	}
}

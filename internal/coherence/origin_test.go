package coherence

import (
	"testing"

	"repro/internal/oodb"
)

func TestOriginWriteEvents(t *testing.T) {
	attrs := func(as ...oodb.AttrID) []oodb.AttrID { return as }
	cases := []struct {
		name     string
		events   [][]oodb.AttrID // successive write events on object 7, 10 s apart
		written  []int           // Write's return per event
		versions map[oodb.AttrID]uint64
		objVer   uint64
		observed []oodb.AttrID // observer calls, in order
	}{
		{"one attribute", [][]oodb.AttrID{attrs(2)}, []int{1},
			map[oodb.AttrID]uint64{2: 1, 3: 0}, 1, attrs(2)},
		{"distinct attributes in first-occurrence order", [][]oodb.AttrID{attrs(5, 1, 3)}, []int{3},
			map[oodb.AttrID]uint64{5: 1, 1: 1, 3: 1}, 3, attrs(5, 1, 3)},
		{"repeated attributes written once", [][]oodb.AttrID{attrs(4, 4, 0, 4, 0)}, []int{2},
			map[oodb.AttrID]uint64{4: 1, 0: 1}, 2, attrs(4, 0)},
		{"two events", [][]oodb.AttrID{attrs(1, 2), attrs(2, 2)}, []int{2, 1},
			map[oodb.AttrID]uint64{1: 1, 2: 2}, 3, attrs(1, 2, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := oodb.New(oodb.Config{NumObjects: 10, RelSeed: 1})
			o := NewOrigin(db, 0)
			var observed []oodb.AttrID
			for i, ev := range tc.events {
				now := 10 * float64(i+1)
				n := o.Write(7, ev, now, func(it oodb.Item, at float64) {
					if it.OID != 7 || at != now {
						t.Fatalf("observer saw (%v, %v) during the event at %v", it, at, now)
					}
					observed = append(observed, it.Attr)
				})
				if n != tc.written[i] {
					t.Fatalf("event %d wrote %d attributes, want %d", i, n, tc.written[i])
				}
			}
			for a, want := range tc.versions {
				if got := db.AttrVersion(7, a); got != want {
					t.Errorf("attr %d version = %d, want %d", a, got, want)
				}
				// The attribute estimator saw exactly the version bumps.
				if got := writeCount(o.Estimator(oodb.AttrItem(7, a)), oodb.AttrItem(7, a)); want > 0 && got != want {
					t.Errorf("attr %d write history holds %d writes, want %d", a, got, want)
				}
			}
			if got := db.ObjectVersion(7); got != tc.objVer {
				t.Errorf("object version = %d, want %d", got, tc.objVer)
			}
			// The object estimator observes once per event, however many
			// attributes the event touched.
			obj := oodb.ObjectItem(7)
			if got := writeCount(o.Estimator(obj), obj); got != uint64(len(tc.events)) {
				t.Errorf("object write history holds %d writes, want %d events", got, len(tc.events))
			}
			if len(observed) != len(tc.observed) {
				t.Fatalf("observer saw %v, want %v", observed, tc.observed)
			}
			for i := range observed {
				if observed[i] != tc.observed[i] {
					t.Fatalf("observer saw %v, want %v", observed, tc.observed)
				}
			}
		})
	}
}

func TestOriginGrantPicksGrainEstimator(t *testing.T) {
	db := oodb.New(oodb.Config{NumObjects: 10, RelSeed: 1})
	o := NewOrigin(db, 0)
	// Attribute 1 is written every 10 s, attribute 2 every 40 s, so object 3
	// sees events 10 s apart most of the time but its histories differ.
	for i := 1; i <= 8; i++ {
		as := []oodb.AttrID{1}
		if i%4 == 0 {
			as = append(as, 2)
		}
		o.Write(3, as, 10*float64(i), nil)
	}
	now := 100.0
	for _, it := range []oodb.Item{oodb.AttrItem(3, 1), oodb.AttrItem(3, 2), oodb.ObjectItem(3), oodb.AttrItem(4, 0)} {
		version, refresh := o.Grant(it, now)
		if want := o.Oracle().CurrentVersion(it); version != want {
			t.Errorf("%v: granted version %d, oracle says %d", it, version, want)
		}
		if want := o.Estimator(it).RefreshTime(it, now); refresh != want {
			t.Errorf("%v: granted refresh %v, its grain's estimator says %v", it, refresh, want)
		}
	}
	if _, rt := o.Grant(oodb.AttrItem(3, 1), now); rt != 10 {
		t.Errorf("attribute written every 10 s leased for %v", rt)
	}
	if _, rt := o.Grant(oodb.AttrItem(3, 2), now); rt != 40 {
		t.Errorf("attribute written every 40 s leased for %v", rt)
	}
	if _, rt := o.Grant(oodb.ObjectItem(3), now); rt != 10 {
		t.Errorf("object with an event every 10 s leased for %v", rt)
	}
	if o.Estimator(oodb.ObjectItem(3)) == o.Estimator(oodb.AttrItem(3, 1)) {
		t.Error("object and attribute grains share one estimator")
	}
}

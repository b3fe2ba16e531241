package serve

import (
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/oodb"
	"repro/internal/workload"
)

// fakeClock is an injectable store clock for pinning lease-expiry edges.
type fakeClock struct {
	mu  sync.Mutex
	now float64
}

func (c *fakeClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d float64) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func newTestStore(t *testing.T, gran core.Granularity, clk *fakeClock) Store {
	t.Helper()
	st, err := Open("memory", Config{
		Granularity: gran,
		NumObjects:  200,
		FixedLease:  10, // deterministic leases: every install expires +10s
		Clock:       clk.Now,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st
}

func TestOpenRejectsUnsupported(t *testing.T) {
	if _, err := Open("memory", Config{Granularity: core.NoCache}); err == nil {
		t.Fatal("NC accepted; want ErrUnsupported")
	}
	if _, err := Open("memory", Config{Granularity: core.HybridCaching}); err == nil {
		t.Fatal("HC accepted; want ErrUnsupported")
	}
	if _, err := Open("redis", Config{Granularity: core.ObjectCaching}); err == nil {
		t.Fatal("unknown backend accepted; want ErrBadRequest")
	}
	if _, err := Open("memory", Config{Granularity: core.ObjectCaching, Policy: "bogus"}); err == nil {
		t.Fatal("bad policy accepted; want ErrBadRequest")
	}
}

func TestReadServeThenHit(t *testing.T) {
	clk := &fakeClock{}
	st := newTestStore(t, core.ObjectCaching, clk)

	res, err := st.Read(0, 5, 0, ModeServe)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if res.State != core.Miss || !res.FromOrigin {
		t.Fatalf("first read: state=%v fromOrigin=%v; want miss served from origin", res.State, res.FromOrigin)
	}
	res, err = st.Read(0, 5, 0, ModeServe)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if res.State != core.Hit || res.FromOrigin || res.Error {
		t.Fatalf("second read: %+v; want clean hit", res)
	}
}

func TestProbeInstallsNothing(t *testing.T) {
	clk := &fakeClock{}
	st := newTestStore(t, core.ObjectCaching, clk)
	if res, _ := st.Read(0, 7, 0, ModeProbe); res.State != core.Miss {
		t.Fatalf("probe state %v; want miss", res.State)
	}
	if res, _ := st.Read(0, 7, 0, ModeProbe); res.State != core.Miss {
		t.Fatal("probe installed the item; second probe should still miss")
	}
}

// TestLeaseExpiryBoundary pins the paper's valid-at-access relation on the
// real-clock path: a copy is valid strictly before its expiry instant and
// stale from the instant on.
func TestLeaseExpiryBoundary(t *testing.T) {
	clk := &fakeClock{}
	st := newTestStore(t, core.AttributeCaching, clk)

	if _, err := st.Read(0, 3, 2, ModeServe); err != nil { // install at t=0, expires t=10
		t.Fatalf("install: %v", err)
	}
	clk.Advance(10 - 1e-9)
	if res, _ := st.Read(0, 3, 2, ModeProbe); res.State != core.Hit {
		t.Fatalf("just before expiry: %v; want hit", res.State)
	}
	clk.Advance(1e-9) // exactly ExpiresAt: ValidAt is t < ExpiresAt
	if res, _ := st.Read(0, 3, 2, ModeProbe); res.State != core.Stale {
		t.Fatalf("at expiry instant: %v; want stale", res.State)
	}
	// ModeServe refreshes the expired copy in place.
	if res, _ := st.Read(0, 3, 2, ModeServe); !res.FromOrigin {
		t.Fatal("serve-mode read of a stale copy should refetch from origin")
	}
	if res, _ := st.Read(0, 3, 2, ModeProbe); res.State != core.Hit {
		t.Fatal("refreshed copy should be a hit again")
	}
}

// TestLeaseGrantedJustBeforeExpiryOfWrite exercises the error window: a hit
// inside the lease after an origin write is served — and flagged as an
// error by the oracle — until the lease runs out.
func TestHitInsideLeaseAfterWriteIsError(t *testing.T) {
	clk := &fakeClock{}
	st := newTestStore(t, core.AttributeCaching, clk)

	if _, err := st.Read(0, 4, 1, ModeServe); err != nil {
		t.Fatalf("install: %v", err)
	}
	if _, err := st.Write(4, []oodb.AttrID{1}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	clk.Advance(5) // still inside the 10s lease
	res, err := st.Read(0, 4, 1, ModeProbe)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if res.State != core.Hit || !res.Error {
		t.Fatalf("hit after overwrite: state=%v error=%v; want erroneous hit", res.State, res.Error)
	}
	st2 := st.Stats()
	if st2.Errors != 1 {
		t.Fatalf("Stats.Errors = %d; want 1", st2.Errors)
	}
}

func TestWriteBumpsVersionOncePerAttr(t *testing.T) {
	clk := &fakeClock{}
	st := newTestStore(t, core.AttributeCaching, clk)

	v1, err := st.Write(9, []oodb.AttrID{0, 1, 1, 0}) // dup attrs collapse
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	v2, err := st.Write(9, []oodb.AttrID{2})
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if v2 != v1+1 {
		t.Fatalf("object versions %d then %d; want one bump per attribute write", v1, v2)
	}
	if got := st.Stats().Writes; got != 3 {
		t.Fatalf("Stats.Writes = %d; want 3 distinct attribute writes", got)
	}
	if _, err := st.Write(9, nil); err == nil {
		t.Fatal("empty write accepted; want ErrBadRequest")
	}
}

func TestFetchDedupsCoverUnits(t *testing.T) {
	clk := &fakeClock{}
	st := newTestStore(t, core.ObjectCaching, clk)
	items, err := st.Fetch(1, []workload.ReadOp{
		{OID: 2, Attr: 0}, {OID: 2, Attr: 5}, {OID: 3, Attr: 1},
	})
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if len(items) != 2 { // two attrs of object 2 cover the same object item
		t.Fatalf("fetched %d units; want 2 after dedup under OC", len(items))
	}
	if res, _ := st.Read(1, 2, 5, ModeProbe); res.State != core.Hit {
		t.Fatalf("fetched unit not resident: %v", res.State)
	}
}

func TestInvalidateWholeObjectAcrossSessions(t *testing.T) {
	clk := &fakeClock{}
	st := newTestStore(t, core.AttributeCaching, clk)

	for client := 0; client < 2; client++ {
		for attr := oodb.AttrID(0); attr < 3; attr++ {
			if _, err := st.Read(client, 11, attr, ModeServe); err != nil {
				t.Fatalf("install: %v", err)
			}
		}
	}
	removed, err := st.Invalidate(-1, 11, oodb.WholeObject)
	if err != nil {
		t.Fatalf("Invalidate: %v", err)
	}
	if removed != 6 {
		t.Fatalf("removed %d entries; want 6 (3 attrs x 2 sessions)", removed)
	}
	if res, _ := st.Read(1, 11, 2, ModeProbe); res.State != core.Miss {
		t.Fatalf("post-invalidate probe: %v; want miss", res.State)
	}
}

func TestRenewRefreshesResidentOnly(t *testing.T) {
	clk := &fakeClock{}
	st := newTestStore(t, core.AttributeCaching, clk)

	if info, err := st.Renew(0, 6, 0); err != nil || info.Cached {
		t.Fatalf("renew of absent unit: info=%+v err=%v; want absent, no error", info, err)
	}
	if _, err := st.Read(0, 6, 0, ModeServe); err != nil {
		t.Fatalf("install: %v", err)
	}
	clk.Advance(12) // lease expired
	if info, _ := st.Lease(0, 6, 0); info.Valid {
		t.Fatal("lease should have expired")
	}
	info, err := st.Renew(0, 6, 0)
	if err != nil {
		t.Fatalf("Renew: %v", err)
	}
	if !info.Cached || !info.Valid || info.Remaining <= 0 {
		t.Fatalf("renewed lease %+v; want valid with time remaining", info)
	}
}

// TestConcurrentReadInvalidateSameOID hammers one object from readers and
// invalidators at once; under -race this pins the session-lock discipline.
func TestConcurrentReadInvalidateSameOID(t *testing.T) {
	clk := &fakeClock{}
	st := newTestStore(t, core.AttributeCaching, clk)

	const workers, iters = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch w % 4 {
				case 0, 1:
					if _, err := st.Read(0, 42, oodb.AttrID(i%12), ModeServe); err != nil {
						t.Errorf("Read: %v", err)
						return
					}
				case 2:
					if _, err := st.Invalidate(0, 42, oodb.WholeObject); err != nil {
						t.Errorf("Invalidate: %v", err)
						return
					}
				default:
					if _, err := st.Write(42, []oodb.AttrID{oodb.AttrID(i % 12)}); err != nil {
						t.Errorf("Write: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	stats := st.Stats()
	if stats.Reads != workers/4*2*iters {
		t.Fatalf("Stats.Reads = %d; want %d", stats.Reads, workers/4*2*iters)
	}
}

func TestReadRejectsBadCoordinates(t *testing.T) {
	clk := &fakeClock{}
	st := newTestStore(t, core.ObjectCaching, clk)
	if _, err := st.Read(0, 100000, 0, ModeServe); err == nil {
		t.Fatal("out-of-range OID accepted")
	}
	if _, err := st.Read(0, 1, 13, ModeServe); err == nil {
		t.Fatal("out-of-range attr accepted")
	}
}

// TestLookupsAllocateNoSession pins that inspecting or invalidating on
// behalf of a client that never cached anything leaves the sessions map
// alone: a scan of client ids through /v1/lease, /v1/renew or
// /v1/invalidate must not grow the store.
func TestLookupsAllocateNoSession(t *testing.T) {
	clk := &fakeClock{now: 5}
	mem := newTestStore(t, core.ObjectCaching, clk)
	file := openFileStore(t, filepath.Join(t.TempDir(), "cache.db"), clk)
	defer file.Close()
	calls := []struct {
		name string
		call func(st Store, id int) (LeaseInfo, int, error)
	}{
		{"Lease", func(st Store, id int) (LeaseInfo, int, error) {
			info, err := st.Lease(id, 3, 0)
			return info, 0, err
		}},
		{"Renew", func(st Store, id int) (LeaseInfo, int, error) {
			info, err := st.Renew(id, 3, 0)
			return info, 0, err
		}},
		{"Invalidate", func(st Store, id int) (LeaseInfo, int, error) {
			removed, err := st.Invalidate(id, 3, oodb.WholeObject)
			return LeaseInfo{Now: 5}, removed, err
		}},
	}
	for name, st := range map[string]Store{"memory": mem, "file": file} {
		// One real session, so "unchanged" is not trivially zero.
		if _, err := st.Read(0, 3, 0, ModeServe); err != nil {
			t.Fatalf("%s: install: %v", name, err)
		}
		for i, tc := range calls {
			before := st.Stats().Sessions
			info, removed, err := tc.call(st, 1000+i)
			if err != nil {
				t.Fatalf("%s %s on an unseen client: %v", name, tc.name, err)
			}
			if want := (LeaseInfo{Now: 5}); info != want || removed != 0 {
				t.Errorf("%s %s on an unseen client = (%+v, %d removed), want (%+v, 0)", name, tc.name, info, removed, want)
			}
			if after := st.Stats().Sessions; after != before {
				t.Errorf("%s %s on an unseen client grew sessions %d -> %d", name, tc.name, before, after)
			}
		}
	}
}

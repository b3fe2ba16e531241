package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/oodb"
	"repro/internal/storage"
	"repro/internal/workload"
)

// fileConfig is the shared scenario for persistence tests: object
// granularity, fixed 10s leases, injectable clock.
func fileConfig(clk *fakeClock) Config {
	return Config{
		Granularity: core.ObjectCaching,
		NumObjects:  200,
		FixedLease:  10,
		Clock:       clk.Now,
	}
}

func openFileStore(t *testing.T, path string, clk *fakeClock) *File {
	t.Helper()
	f, err := NewFile(path, storage.SyncGroup, fileConfig(clk))
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	return f
}

// TestOpenBackendNames: each backend spelling opens, an unknown name is an
// error that names the spellings there are.
func TestOpenBackendNames(t *testing.T) {
	cfg := Config{Granularity: core.ObjectCaching}
	for _, dsn := range []string{"", "memory", "mem", "file:" + filepath.Join(t.TempDir(), "cache.db")} {
		st, err := Open(dsn, cfg)
		if err != nil {
			t.Fatalf("Open(%q): %v", dsn, err)
		}
		if f, ok := st.(*File); ok {
			f.Close()
		}
	}
	_, err := Open("redis:localhost", cfg)
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown backend = %v, want ErrBadRequest", err)
	}
	for _, name := range []string{"memory", "mem", "file"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown-backend error does not name %q: %v", name, err)
		}
	}
	if _, err := Open("memory:stuff", Config{Granularity: core.ObjectCaching}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("memory backend with operands = %v, want ErrBadRequest", err)
	}
	big := Config{Granularity: core.ObjectCaching, NumObjects: oodb.MaxIndexedObjects + 1, Policy: "lru-2"}
	if _, err := Open("memory", big); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("database past the item index = %v, want ErrBadRequest", err)
	}
	if _, err := Open("file:", Config{Granularity: core.ObjectCaching}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("file backend without path = %v, want ErrBadRequest", err)
	}
	if _, err := Open("file:/tmp/x?sync=bogus", Config{Granularity: core.ObjectCaching}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad sync mode = %v, want ErrBadRequest", err)
	}
	if _, err := Open("file:/tmp/x?nope=1", Config{Granularity: core.ObjectCaching}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown DSN param = %v, want ErrBadRequest", err)
	}
}

func TestFileDSNOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache.db")
	st, err := Open("file:"+dir+"?sync=none", Config{
		Granularity: core.ObjectCaching, NumObjects: 50, FixedLease: 10,
	})
	if err != nil {
		t.Fatalf("Open(file:...): %v", err)
	}
	f := st.(*File)
	defer f.Close()
	stats := f.Stats()
	if stats.Backend != "file" {
		t.Fatalf("Backend = %q, want file", stats.Backend)
	}
	if !strings.HasPrefix(stats.DSN, "file:…/cache.db") {
		t.Fatalf("DSN = %q, want redacted path", stats.DSN)
	}
	if strings.Contains(stats.DSN, dir) {
		t.Fatalf("DSN %q leaks the full path", stats.DSN)
	}
	if stats.DiskBytes <= 0 {
		t.Fatalf("DiskBytes = %d, want > 0 (meta record)", stats.DiskBytes)
	}
}

// TestFileRestartPreservesState is the tentpole's live-layer acceptance
// check: cached leases, origin versions, and estimator write history all
// survive a close + reopen.
func TestFileRestartPreservesState(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache.db")
	clk := &fakeClock{}
	f := openFileStore(t, dir, clk)

	// Install a lease for client 1 on object 5 and write object 7 twice.
	res, err := f.Read(1, 5, 0, ModeServe)
	if err != nil || !res.FromOrigin {
		t.Fatalf("Read: %+v, %v", res, err)
	}
	if _, err := f.Write(7, []oodb.AttrID{0, 3}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	clk.Advance(2)
	v2, err := f.Write(7, []oodb.AttrID{0})
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	clk.Advance(3) // downtime: 5s total since the read at t=0
	g := openFileStore(t, dir, clk)
	defer g.Close()

	// The lease survives and is still running (granted at 0, expires 10).
	info, err := g.Lease(1, 5, 0)
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	if !info.Cached || !info.Valid {
		t.Fatalf("lease after restart = %+v, want cached+valid", info)
	}
	if info.Version != res.Version || info.ExpiresAt != res.ExpiresAt {
		t.Fatalf("lease after restart = %+v, want version %d expires %g",
			info, res.Version, res.ExpiresAt)
	}
	// A probe read classifies it as a hit, same as before the restart.
	r2, err := g.Read(1, 5, 0, ModeProbe)
	if err != nil || r2.State != core.Hit {
		t.Fatalf("probe after restart = %+v, %v; want hit", r2, err)
	}

	// Origin versions survive: object 7 saw 3 attribute writes.
	if got := g.org.DB().ObjectVersion(7); got != v2 {
		t.Fatalf("object 7 version after restart = %d, want %d", got, v2)
	}
	if got := g.org.DB().AttrVersion(7, 0); got != 2 {
		t.Fatalf("attr (7,0) version after restart = %d, want 2", got)
	}
	if got := g.org.DB().TotalWrites(); got != 3 {
		t.Fatalf("TotalWrites after restart = %d, want 3", got)
	}

	// Estimator write history survives: object 7's stream saw events at
	// t=0 and t=2, so one 2s inter-arrival duration.
	st, ok := g.org.Estimator(oodb.ObjectItem(7)).StreamState(oodb.ObjectItem(7))
	if !ok {
		t.Fatal("object 7 write stream lost across restart")
	}
	if st.N != 1 || st.Mean != 2 {
		t.Fatalf("stream state after restart = %+v, want n=1 mean=2", st)
	}
}

// TestFileLeaseExpiresThroughDowntime pins the documented wall-clock
// semantics: the store clock continues from the first boot's epoch, so a
// lease that would have expired during downtime is stale after restart.
func TestFileLeaseExpiresThroughDowntime(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache.db")
	clk := &fakeClock{}
	f := openFileStore(t, dir, clk)
	if _, err := f.Read(0, 9, 0, ModeServe); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	clk.Advance(11) // lease was 10s; downtime overruns it
	g := openFileStore(t, dir, clk)
	defer g.Close()
	info, err := g.Lease(0, 9, 0)
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	if !info.Cached || info.Valid {
		t.Fatalf("lease after overlong downtime = %+v, want cached but expired", info)
	}
	res, err := g.Read(0, 9, 0, ModeProbe)
	if err != nil || res.State != core.Stale {
		t.Fatalf("probe after overlong downtime = %+v, %v; want stale", res, err)
	}
}

func TestFileInvalidateDropsPersistedLease(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache.db")
	clk := &fakeClock{}
	f := openFileStore(t, dir, clk)
	if _, err := f.Read(2, 4, 0, ModeServe); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if _, err := f.Read(6, 4, 0, ModeServe); err != nil {
		t.Fatalf("Read: %v", err)
	}
	commits := f.Storage().Stats().Commits
	if n, err := f.Invalidate(2, 4, oodb.WholeObject); err != nil || n != 1 {
		t.Fatalf("Invalidate = %d, %v; want 1", n, err)
	}
	if got := f.Storage().Stats().Commits - commits; got != 1 {
		t.Fatalf("Invalidate took %d commits, want 1", got)
	}
	// An all-sessions invalidate is one commit too, whatever it drops.
	if _, err := f.Read(2, 4, 0, ModeServe); err != nil {
		t.Fatalf("Read: %v", err)
	}
	commits = f.Storage().Stats().Commits
	if n, err := f.Invalidate(-1, 4, oodb.WholeObject); err != nil || n != 2 {
		t.Fatalf("Invalidate(all) = %d, %v; want 2", n, err)
	}
	if st := f.Storage().Stats(); st.Commits-commits != 1 {
		t.Fatalf("Invalidate(all) took %d commits, want 1", st.Commits-commits)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	g := openFileStore(t, dir, clk)
	defer g.Close()
	for _, cid := range []int{2, 6} {
		info, err := g.Lease(cid, 4, 0)
		if err != nil {
			t.Fatalf("Lease: %v", err)
		}
		if info.Cached {
			t.Fatalf("client %d: invalidated lease resurrected after restart: %+v", cid, info)
		}
	}
}

func TestFileFetchAndRenewPersist(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache.db")
	clk := &fakeClock{}
	f := openFileStore(t, dir, clk)
	commits := f.Storage().Stats().Commits
	out, err := f.Fetch(3, []workload.ReadOp{{OID: 11}, {OID: 12}})
	if err != nil || len(out) != 2 {
		t.Fatalf("Fetch = %v, %v", out, err)
	}
	if st := f.Storage().Stats(); st.Commits-commits != 1 {
		t.Fatalf("Fetch of 2 items took %d commits, want 1", st.Commits-commits)
	}
	clk.Advance(5)
	info, err := f.Renew(3, 11, 0)
	if err != nil || !info.Cached {
		t.Fatalf("Renew = %+v, %v", info, err)
	}
	if st := f.Storage().Stats(); st.Commits-commits != 2 {
		t.Fatalf("Fetch + Renew took %d commits, want 2", st.Commits-commits)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	g := openFileStore(t, dir, clk)
	defer g.Close()
	// Object 11's lease was renewed at t=5 (expires 15); object 12's
	// original lease from t=0 (expires 10) also survives.
	i11, _ := g.Lease(3, 11, 0)
	if !i11.Cached || i11.ExpiresAt != info.ExpiresAt {
		t.Fatalf("renewed lease after restart = %+v, want expires %g", i11, info.ExpiresAt)
	}
	i12, _ := g.Lease(3, 12, 0)
	if !i12.Cached || i12.ExpiresAt != out[1].ExpiresAt {
		t.Fatalf("fetched lease after restart = %+v, want expires %g", i12, out[1].ExpiresAt)
	}
}

// TestFileConcurrentWritesRecoverAcknowledged hammers one object from
// eight writers over sync=group. The log must order their snapshots the
// way the origin applied the writes, or a restart would restore a state
// older than one it acknowledged.
func TestFileConcurrentWritesRecoverAcknowledged(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache.db")
	clk := &fakeClock{}
	f := openFileStore(t, dir, clk)
	const writers, rounds, oid = 8, 200, 42
	var wg sync.WaitGroup
	acked := make([]uint64, writers) // highest version each writer was acknowledged
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v, err := f.Write(oid, []oodb.AttrID{oodb.AttrID((w + i) % oodb.NumAttrs)})
				if err != nil {
					t.Errorf("Write: %v", err)
					return
				}
				acked[w] = v
			}
		}(w)
	}
	wg.Wait()
	var highest uint64
	for _, v := range acked {
		highest = max(highest, v)
	}
	if highest != writers*rounds {
		t.Fatalf("highest acknowledged version = %d, want %d", highest, writers*rounds)
	}
	attrs := f.org.DB().AttrVersions(oid)
	if st := f.Storage().Stats(); st.Commits != writers*rounds+1 { // + the meta record
		t.Fatalf("%d writes took %d commits", writers*rounds, st.Commits)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	g := openFileStore(t, dir, clk)
	defer g.Close()
	if got := g.org.DB().ObjectVersion(oid); got != highest {
		t.Fatalf("recovered object version %d, acknowledged %d", got, highest)
	}
	if got := g.org.DB().AttrVersions(oid); got != attrs {
		t.Fatalf("recovered attribute versions %v, acknowledged %v", got, attrs)
	}
}

func TestFileReopenRejectsMismatchedConfig(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache.db")
	clk := &fakeClock{}
	f := openFileStore(t, dir, clk)
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	cfg := fileConfig(clk)
	cfg.Granularity = core.AttributeCaching
	if _, err := NewFile(dir, storage.SyncGroup, cfg); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("reopen with different granularity = %v, want ErrBadRequest", err)
	}
	cfg = fileConfig(clk)
	cfg.NumObjects = 999
	if _, err := NewFile(dir, storage.SyncGroup, cfg); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("reopen with different population = %v, want ErrBadRequest", err)
	}
}

// TestFileFailsClosedAfterPersistError: Write applies to the in-memory
// origin before its record is durable, so once a record fails to persist
// the store must stop serving, or another client would read a version a
// restart does not have.
func TestFileFailsClosedAfterPersistError(t *testing.T) {
	fault := errors.New("injected fsync fault")
	var failNext atomic.Bool
	log, err := storage.Open(storage.Options{
		Path: filepath.Join(t.TempDir(), "cache.db"),
		Fsync: func(f *os.File) error {
			if failNext.CompareAndSwap(true, false) {
				return fault
			}
			return f.Sync()
		},
	})
	if err != nil {
		t.Fatalf("storage.Open: %v", err)
	}
	f, err := newFileOver(log, fileConfig(&fakeClock{}))
	if err != nil {
		t.Fatalf("newFileOver: %v", err)
	}
	defer f.Close()
	if _, err := f.Read(1, 5, 0, ModeServe); err != nil {
		t.Fatalf("Read before the fault: %v", err)
	}
	health := func() int {
		rec := httptest.NewRecorder()
		NewHandler(f, HTTPConfig{}).ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		return rec.Code
	}
	if code := health(); code != http.StatusOK {
		t.Fatalf("healthz before the fault = %d, want 200", code)
	}

	failNext.Store(true)
	if _, err := f.Write(5, []oodb.AttrID{0}); !errors.Is(err, fault) {
		t.Fatalf("Write under a failing fsync = %v, want the fault", err)
	}
	if res, err := f.Read(2, 5, 0, ModeServe); !errors.Is(err, fault) {
		t.Fatalf("another client's Read after the failed Write = %+v, %v; want the fault", res, err)
	}
	// The fault was one-shot, yet the store stays closed.
	for name, call := range map[string]func() error{
		"Read":       func() error { _, err := f.Read(1, 5, 0, ModeProbe); return err },
		"Fetch":      func() error { _, err := f.Fetch(3, []workload.ReadOp{{OID: 11}}); return err },
		"Write":      func() error { _, err := f.Write(6, []oodb.AttrID{0}); return err },
		"Invalidate": func() error { _, err := f.Invalidate(1, 5, oodb.WholeObject); return err },
		"Renew":      func() error { _, err := f.Renew(1, 5, 0); return err },
		"Lease":      func() error { _, err := f.Lease(1, 5, 0); return err },
	} {
		if err := call(); !errors.Is(err, fault) || errors.Is(err, ErrBadRequest) {
			t.Errorf("%s after the failed Write = %v, want the fault (HTTP 500)", name, err)
		}
	}
	if st := f.Stats(); st.Backend != "file" || st.Writes != 1 {
		t.Fatalf("Stats after the failure = %+v, want the file backend's counters", st)
	}
	if code := health(); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after the failure = %d, want 503", code)
	}
}

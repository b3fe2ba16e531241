package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/obs"
)

// openTest opens a store rooted in t's temp dir with small segments so
// rotation and compaction trigger inside tests.
func openTest(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.Path == "" {
		opts.Path = filepath.Join(t.TempDir(), "db")
	}
	if opts.SegmentBytes == 0 {
		opts.SegmentBytes = 4 << 10
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// del removes key through a one-record commit unit: a tombstone for a live
// key, nothing for an absent one.
func del(s *Store, key string) error {
	if !s.Has(key) {
		return nil
	}
	var b Batch
	b.Delete(key)
	return s.Apply(&b)
}

func TestPutGetDelete(t *testing.T) {
	s := openTest(t, Options{})
	if err := s.Put("a", []byte("alpha")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put("b", []byte("beta")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, ok, err := s.Get("a")
	if err != nil || !ok || string(v) != "alpha" {
		t.Fatalf("Get(a) = %q, %v, %v", v, ok, err)
	}
	if _, ok, _ := s.Get("nope"); ok {
		t.Fatal("Get(nope) reported presence")
	}
	// Overwrite wins.
	if err := s.Put("a", []byte("alpha2")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if v, _, _ := s.Get("a"); string(v) != "alpha2" {
		t.Fatalf("after overwrite Get(a) = %q", v)
	}
	// Delete hides the key.
	if err := del(s, "a"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, ok, _ := s.Get("a"); ok {
		t.Fatal("Get(a) after Delete reported presence")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestReopenRecoversState(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	s, err := Open(Options{Path: dir, SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := make(map[string]string)
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%03d", i%50) // overwrites exercise index repointing
		v := fmt.Sprintf("val-%d", i)
		if err := s.Put(k, []byte(v)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		want[k] = v
	}
	if err := del(s, "key-007"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	delete(want, "key-007")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(Options{Path: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.Len() != len(want) {
		t.Fatalf("recovered %d keys, want %d", s2.Len(), len(want))
	}
	for k, v := range want {
		got, ok, err := s2.Get(k)
		if err != nil || !ok || string(got) != v {
			t.Fatalf("Get(%s) = %q, %v, %v; want %q", k, got, ok, err, v)
		}
	}
	if st := s2.Stats(); st.RecoveredRecords == 0 {
		t.Fatal("Stats.RecoveredRecords = 0 after replay")
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	s, err := Open(Options{Path: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte("value")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Tear the tail: append half of a valid record — a crash mid-append.
	rec := parentRecord("k-torn", []byte("never-committed"), false)
	seg := filepath.Join(dir, "seg-00000000.log")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	if _, err := f.Write(rec[:len(rec)-5]); err != nil {
		t.Fatalf("tear: %v", err)
	}
	f.Close()

	s2, err := Open(Options{Path: dir})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 10 {
		t.Fatalf("recovered %d keys, want 10", s2.Len())
	}
	if _, ok, _ := s2.Get("k-torn"); ok {
		t.Fatal("torn record surfaced after recovery")
	}
	if st := s2.Stats(); st.TruncatedBytes != int64(len(rec)-5) {
		t.Fatalf("TruncatedBytes = %d, want %d", st.TruncatedBytes, len(rec)-5)
	}
	// Writes after truncation land cleanly where the tear was cut.
	if err := s2.Put("after", []byte("tear")); err != nil {
		t.Fatalf("Put after truncation: %v", err)
	}
	if v, ok, _ := s2.Get("after"); !ok || string(v) != "tear" {
		t.Fatalf("Get(after) = %q, %v", v, ok)
	}
}

func TestCorruptionMidLogRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	s, err := Open(Options{Path: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 40; i++ {
		if err := s.Put(fmt.Sprintf("key-%02d", i), make([]byte, 100)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if s.Stats().Segments < 2 {
		t.Fatalf("want multiple segments, got %d", s.Stats().Segments)
	}
	s.Close()

	// Flip a byte in the middle of the first (non-final) segment.
	seg := filepath.Join(dir, "seg-00000000.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatalf("write segment: %v", err)
	}

	if _, err := Open(Options{Path: dir}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over mid-log corruption = %v, want ErrCorrupt", err)
	}
}

// TestFsyncFault injects fsync failures and verifies the writer hears
// about them — a Put must never report success when its sync failed.
func TestFsyncFault(t *testing.T) {
	fail := false
	var mu sync.Mutex
	opts := Options{
		Path: filepath.Join(t.TempDir(), "db"),
		Fsync: func(f *os.File) error {
			mu.Lock()
			defer mu.Unlock()
			if fail {
				return errors.New("injected fsync fault")
			}
			return f.Sync()
		},
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if err := s.Put("ok", []byte("v")); err != nil {
		t.Fatalf("Put before fault: %v", err)
	}
	mu.Lock()
	fail = true
	mu.Unlock()
	if err := s.Put("doomed", []byte("v")); err == nil {
		t.Fatal("Put returned nil during fsync fault")
	}
	mu.Lock()
	fail = false
	mu.Unlock()
	if err := s.Put("recovered", []byte("v")); err != nil {
		t.Fatalf("Put after fault cleared: %v", err)
	}
}

func TestCompaction(t *testing.T) {
	s := openTest(t, Options{
		SegmentBytes:    1 << 10,
		CompactGarbage:  -1, // manual Compact only
		CompactMinBytes: 1,
	})
	// Many overwrites of a small key set → most sealed bytes are garbage.
	for i := 0; i < 400; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i%8), make([]byte, 64)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := del(s, "k0"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	before := s.Stats()
	if before.Segments < 3 {
		t.Fatalf("want several segments before compaction, got %d", before.Segments)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := s.Stats()
	if after.DiskBytes >= before.DiskBytes {
		t.Fatalf("compaction did not shrink the log: %d → %d bytes",
			before.DiskBytes, after.DiskBytes)
	}
	if after.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1", after.Compactions)
	}
	for i := 1; i < 8; i++ {
		if v, ok, err := s.Get(fmt.Sprintf("k%d", i)); err != nil || !ok || len(v) != 64 {
			t.Fatalf("Get(k%d) after compaction = %d bytes, %v, %v", i, len(v), ok, err)
		}
	}
	if _, ok, _ := s.Get("k0"); ok {
		t.Fatal("deleted key resurrected by compaction")
	}

	// The compacted log must replay cleanly.
	path := s.opts.Path
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := Open(Options{Path: path})
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 7 {
		t.Fatalf("recovered %d keys after compaction, want 7", s2.Len())
	}
}

func TestAutoCompaction(t *testing.T) {
	s := openTest(t, Options{
		SegmentBytes:    1 << 10,
		CompactGarbage:  0.5,
		CompactMinBytes: 1 << 10,
	})
	for i := 0; i < 2000; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i%4), make([]byte, 64)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	s.compactWG.Wait()
	if st := s.Stats(); st.Compactions == 0 {
		t.Fatalf("auto-compaction never fired: %+v", st)
	}
	for i := 0; i < 4; i++ {
		if _, ok, err := s.Get(fmt.Sprintf("k%d", i)); err != nil || !ok {
			t.Fatalf("Get(k%d) after auto-compaction: %v, %v", i, ok, err)
		}
	}
}

func TestScan(t *testing.T) {
	s := openTest(t, Options{})
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("e:%d", i), []byte{byte(i)}); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := s.Put("v:0", []byte("other")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	seen := map[string]bool{}
	if err := s.Scan("e:", func(k string, v []byte) bool {
		seen[k] = true
		return true
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(seen) != 5 {
		t.Fatalf("Scan visited %d keys, want 5: %v", len(seen), seen)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := openTest(t, Options{SegmentBytes: 8 << 10})
	var wg sync.WaitGroup
	const writers, rounds = 8, 50
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i%10)
				if err := s.Put(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, _, err := s.Get(key); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if i%20 == 19 {
					if err := s.Compact(); err != nil {
						t.Errorf("Compact: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != writers*10 {
		t.Fatalf("Len = %d, want %d", s.Len(), writers*10)
	}
}

func TestRegisterAndLatency(t *testing.T) {
	s := openTest(t, Options{})
	reg := obs.New(1)
	s.Register(reg)
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, _, err := s.Get("k"); err != nil {
		t.Fatalf("Get: %v", err)
	}
	_, _, putP50, _ := s.LatencySummary()
	if putP50 <= 0 {
		t.Fatalf("put p50 = %g, want > 0", putP50)
	}
	// Nil registry is the free disabled state.
	var none *obs.Registry
	s2 := openTest(t, Options{})
	s2.Register(none)
	if err := s2.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put unregistered: %v", err)
	}
}

func TestParseSyncMode(t *testing.T) {
	for in, want := range map[string]SyncMode{
		"": SyncGroup, "group": SyncGroup, "always": SyncAlways, "none": SyncNone,
	} {
		got, err := ParseSyncMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSyncMode("bogus"); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("ParseSyncMode(bogus) = %v, want ErrBadOptions", err)
	}
}

func TestClosedOps(t *testing.T) {
	s := openTest(t, Options{})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Put("k", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put on closed = %v, want ErrClosed", err)
	}
	if _, _, err := s.Get("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get on closed = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// parentRecord frames one record the way the engine did before commit
// units existed (flags carries the tombstone bit and nothing else). It is
// a fixture, deliberately independent of the production encoder.
func parentRecord(key string, value []byte, tombstone bool) []byte {
	rec := make([]byte, 13+len(key)+len(value))
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(value)))
	if tombstone {
		rec[12] = 1
	}
	copy(rec[13:], key)
	copy(rec[13+len(key):], value)
	binary.LittleEndian.PutUint32(rec, crc32.Checksum(rec[4:], crc32.MakeTable(crc32.Castagnoli)))
	return rec
}

// mustGet fails the test unless key holds want ("" = absent).
func mustGet(t *testing.T, s *Store, key, want string) {
	t.Helper()
	got, ok, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get(%s): %v", key, err)
	}
	if want == "" && ok {
		t.Fatalf("Get(%s) = %q, want absent", key, got)
	}
	if want != "" && (!ok || string(got) != want) {
		t.Fatalf("Get(%s) = %q, %v; want %q", key, got, ok, want)
	}
}

// singlesThenBatch returns the bytes of a log holding four single-record
// commits and, separately, the bytes of a four-record unit that overwrites
// one of them, deletes another and adds two keys.
func singlesThenBatch() (singles, unit []byte) {
	for i := 0; i < 4; i++ {
		singles = append(singles, parentRecord(fmt.Sprintf("old-%d", i), []byte("before"), false)...)
	}
	var b Batch
	b.Put("old-1", []byte("after"))
	b.Delete("old-2")
	b.Put("new-a", []byte("alpha"))
	b.Put("new-b", []byte("beta"))
	sealed, err := b.seal()
	if err != nil {
		panic(err)
	}
	return singles, append([]byte(nil), sealed...)
}

func writeSegment(t *testing.T, dir string, id int, data []byte) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seg-%08d.log", id)), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestBatchAtomicAtEveryPrefix crashes a four-record commit unit at every
// byte: whatever prefix of it reached the disk, recovery shows all of it
// or none of it.
func TestBatchAtomicAtEveryPrefix(t *testing.T) {
	singles, unit := singlesThenBatch()
	for cut := 0; cut <= len(unit); cut++ {
		dir := filepath.Join(t.TempDir(), "db")
		writeSegment(t, dir, 0, append(append([]byte(nil), singles...), unit[:cut]...))
		s, err := Open(Options{Path: dir})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		whole := cut == len(unit)
		mustGet(t, s, "old-0", "before")
		mustGet(t, s, "old-3", "before")
		if whole {
			mustGet(t, s, "old-1", "after")
			mustGet(t, s, "old-2", "")
			mustGet(t, s, "new-a", "alpha")
			mustGet(t, s, "new-b", "beta")
		} else {
			mustGet(t, s, "old-1", "before")
			mustGet(t, s, "old-2", "before")
			mustGet(t, s, "new-a", "")
			mustGet(t, s, "new-b", "")
		}
		wantCut := int64(cut)
		if whole {
			wantCut = 0
		}
		if st := s.Stats(); st.TruncatedBytes != wantCut {
			t.Fatalf("cut %d: TruncatedBytes = %d, want %d", cut, st.TruncatedBytes, wantCut)
		}
		// The store takes writes where the tear was cut, and they replay.
		if err := s.Put("after-crash", []byte("ok")); err != nil {
			t.Fatalf("cut %d: Put after recovery: %v", cut, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("cut %d: Close: %v", cut, err)
		}
		s, err = Open(Options{Path: dir})
		if err != nil {
			t.Fatalf("cut %d: second Open: %v", cut, err)
		}
		mustGet(t, s, "after-crash", "ok")
		mustGet(t, s, "old-0", "before")
		if st := s.Stats(); st.TruncatedBytes != 0 {
			t.Fatalf("cut %d: second Open truncated %d bytes", cut, st.TruncatedBytes)
		}
		s.Close()
	}
}

// TestIncompleteUnitMidLogRejected: the same torn unit is damage, not a
// crash tail, once a later segment follows it.
func TestIncompleteUnitMidLogRejected(t *testing.T) {
	singles, unit := singlesThenBatch()
	firstTwo := recordSize(unit) + recordSize(unit[recordSize(unit):])
	for _, cut := range []int{firstTwo, firstTwo + 5, len(unit) - 1} {
		dir := filepath.Join(t.TempDir(), "db")
		writeSegment(t, dir, 0, append(append([]byte(nil), singles...), unit[:cut]...))
		writeSegment(t, dir, 1, parentRecord("later", []byte("sealed"), false))
		if _, err := Open(Options{Path: dir}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: Open = %v, want ErrCorrupt", cut, err)
		}
	}
}

// TestCompactHalfSupersededBatch: compaction carries the surviving records
// of a unit over as units of their own, so the merged log replays even
// though the unit's last record is gone.
func TestCompactHalfSupersededBatch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	s, err := Open(Options{Path: dir, SegmentBytes: 256, CompactGarbage: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var b Batch
	for _, k := range []string{"u-0", "u-1", "u-2", "u-3"} {
		b.Put(k, []byte("unit"))
	}
	if err := s.Apply(&b); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	// Supersede the unit's second and last records and seal its segment.
	for i := 0; i < 8; i++ {
		if err := s.Put([]string{"u-1", "u-3"}[i%2], make([]byte, 100)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if s.Stats().Segments < 3 {
		t.Fatalf("want the unit's segment sealed, got %d segments", s.Stats().Segments)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	check := func(s *Store) {
		t.Helper()
		mustGet(t, s, "u-0", "unit")
		mustGet(t, s, "u-2", "unit")
		for _, k := range []string{"u-1", "u-3"} {
			if v, ok, err := s.Get(k); err != nil || !ok || len(v) != 100 {
				t.Fatalf("Get(%s) = %d bytes, %v, %v", k, len(v), ok, err)
			}
		}
	}
	check(s)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s, err = Open(Options{Path: dir})
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer s.Close()
	check(s)
	if st := s.Stats(); st.Keys != 4 || st.TruncatedBytes != 0 {
		t.Fatalf("after reopen: %+v", st)
	}
}

// TestParentFormatLog: a log written record by record in the parent
// commit's format is what one-record units look like, byte for byte; it
// opens, serves, compacts and reopens under the change.
func TestParentFormatLog(t *testing.T) {
	type op struct {
		key, val string
		del      bool
	}
	var ops []op
	want := map[string]string{}
	for i := 0; i < 60; i++ {
		o := op{key: fmt.Sprintf("key-%02d", i%20), val: fmt.Sprintf("value-%d", i)}
		if i%7 == 6 {
			o = op{key: fmt.Sprintf("key-%02d", (i-3)%20), del: true}
		}
		ops = append(ops, o)
		if o.del {
			delete(want, o.key)
		} else {
			want[o.key] = o.val
		}
	}
	var fixture []byte
	var firstHalf int
	for i, o := range ops {
		if i == len(ops)/2 {
			firstHalf = len(fixture)
		}
		fixture = append(fixture, parentRecord(o.key, []byte(o.val), o.del)...)
	}

	// The same operations through Put and Delete produce the same bytes
	// and, replayed, the same index.
	twinDir := filepath.Join(t.TempDir(), "twin")
	twin, err := Open(Options{Path: twinDir, Sync: SyncNone})
	if err != nil {
		t.Fatalf("Open twin: %v", err)
	}
	for _, o := range ops {
		if o.del {
			err = del(twin, o.key)
		} else {
			err = twin.Put(o.key, []byte(o.val))
		}
		if err != nil {
			t.Fatalf("twin write: %v", err)
		}
	}
	defer twin.Close()
	written, err := os.ReadFile(twin.active.path)
	if err != nil {
		t.Fatal(err)
	}
	if string(written) != string(fixture) {
		t.Fatal("single-record commits are not byte-identical to the parent's record stream")
	}
	oneDir := filepath.Join(t.TempDir(), "one")
	writeSegment(t, oneDir, 0, fixture)
	one, err := Open(Options{Path: oneDir})
	if err != nil {
		t.Fatalf("Open parent-format log: %v", err)
	}
	defer one.Close()
	if !reflect.DeepEqual(one.index, twin.index) {
		t.Fatal("replaying the parent-format log built a different index")
	}
	if st := one.Stats(); st.RecoveredRecords != uint64(len(ops)) || st.TruncatedBytes != 0 {
		t.Fatalf("replay stats: %+v", st)
	}

	// Split across a sealed and an active segment: serve, compact, reopen.
	dir := filepath.Join(t.TempDir(), "db")
	writeSegment(t, dir, 0, fixture[:firstHalf])
	writeSegment(t, dir, 1, fixture[firstHalf:])
	check := func(s *Store) {
		t.Helper()
		if s.Len() != len(want) {
			t.Fatalf("Len = %d, want %d", s.Len(), len(want))
		}
		for k, v := range want {
			mustGet(t, s, k, v)
		}
	}
	s, err := Open(Options{Path: dir, CompactGarbage: -1})
	if err != nil {
		t.Fatalf("Open split parent-format log: %v", err)
	}
	check(s)
	if err := s.Put("key-00", []byte("changed")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	want["key-00"] = "changed"
	before := s.Stats().DiskBytes
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if after := s.Stats().DiskBytes; after >= before {
		t.Fatalf("compaction did not shrink the parent-format log: %d -> %d", before, after)
	}
	check(s)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if s, err = Open(Options{Path: dir}); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	check(s)
}

// parkedFsync is an Options.Fsync hook whose first call parks until
// released and then returns fail; later calls sync for real.
type parkedFsync struct {
	calls   atomic.Int32
	entered chan struct{}
	release chan struct{}
	fail    error
}

func newParkedFsync(fail error) *parkedFsync {
	return &parkedFsync{entered: make(chan struct{}), release: make(chan struct{}), fail: fail}
}

func (p *parkedFsync) fsync(f *os.File) error {
	if p.calls.Add(1) == 1 {
		close(p.entered)
		<-p.release
		return p.fail
	}
	return f.Sync()
}

func appendOne(t *testing.T, s *Store, key string) uint64 {
	t.Helper()
	var b Batch
	b.Put(key, []byte("v"))
	seq, err := s.Append(&b)
	if err != nil {
		t.Fatalf("Append(%s): %v", key, err)
	}
	return seq
}

// TestAppendsProceedDuringFsync parks the first fsync: further commits are
// appended and readable meanwhile, and one more fsync releases them all.
func TestAppendsProceedDuringFsync(t *testing.T) {
	hook := newParkedFsync(nil)
	s := openTest(t, Options{Fsync: hook.fsync})
	first := appendOne(t, s, "first")
	firstDone := make(chan error, 1)
	go func() { firstDone <- s.Wait(first) }()
	<-hook.entered

	const n = 6
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("queued-%d", i)
		seq := appendOne(t, s, key) // returns although fsync #1 is in flight
		mustGet(t, s, key, "v")
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.Wait(seq)
		}(i)
	}
	if st := s.Stats(); st.Commits != n+1 || st.Syncs != 0 {
		t.Fatalf("with fsync #1 parked: %+v", st)
	}
	close(hook.release)
	if err := <-firstDone; err != nil {
		t.Fatalf("Wait(first): %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Wait(queued-%d): %v", i, err)
		}
	}
	if st := s.Stats(); st.Syncs != 2 || st.Commits != n+1 || st.Puts != n+1 {
		t.Fatalf("%d commits took %d fsyncs, want 2: %+v", st.Commits, st.Syncs, st)
	}
}

// TestFailedFsyncFailsWhatItCovered: a failing fsync fails every commit
// appended before it began — whether or not its waiter had arrived — and
// none appended after.
func TestFailedFsyncFailsWhatItCovered(t *testing.T) {
	fault := errors.New("injected fsync fault")
	hook := newParkedFsync(fault)
	s := openTest(t, Options{Fsync: hook.fsync})
	covered := []uint64{appendOne(t, s, "a"), appendOne(t, s, "b"), appendOne(t, s, "c")}
	leader := make(chan error, 1)
	go func() { leader <- s.Wait(covered[1]) }()
	<-hook.entered
	later := []uint64{appendOne(t, s, "d"), appendOne(t, s, "e")}
	close(hook.release)

	if err := <-leader; !errors.Is(err, fault) {
		t.Fatalf("leader's Wait = %v, want the injected fault", err)
	}
	for _, seq := range covered {
		if err := s.Wait(seq); !errors.Is(err, fault) {
			t.Fatalf("Wait(%d) = %v, want the injected fault", seq, err)
		}
	}
	for _, seq := range later {
		if err := s.Wait(seq); err != nil {
			t.Fatalf("Wait(%d), appended after the failed fsync began: %v", seq, err)
		}
	}
	if st := s.Stats(); st.Syncs != 2 {
		t.Fatalf("Syncs = %d, want 2", st.Syncs)
	}
}

// TestRotationUnderConcurrentWriters rotates every few records while eight
// writers commit: no fsync may reach a handle rotation has closed.
func TestRotationUnderConcurrentWriters(t *testing.T) {
	s := openTest(t, Options{
		SegmentBytes:   512,
		CompactGarbage: -1,
		Fsync: func(f *os.File) error {
			if err := f.Sync(); err != nil {
				return fmt.Errorf("fsync on a retired handle: %w", err)
			}
			return nil
		},
	})
	const writers, rounds = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var b Batch
				b.Put(fmt.Sprintf("w%d-a", w), make([]byte, 100))
				b.Put(fmt.Sprintf("w%d-b", w), []byte(fmt.Sprint(i)))
				if err := s.Apply(&b); err != nil {
					t.Errorf("Apply: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.Segments < writers {
		t.Fatalf("want many rotations, got %d segments", st.Segments)
	}
	for w := 0; w < writers; w++ {
		mustGet(t, s, fmt.Sprintf("w%d-b", w), fmt.Sprint(rounds-1))
	}
}

// TestSyncModesFsyncPerCommit: SyncAlways pays one fsync per commit unit
// however many records it holds, SyncNone none.
func TestSyncModesFsyncPerCommit(t *testing.T) {
	for _, tc := range []struct {
		mode SyncMode
		want uint64
	}{{SyncAlways, 5}, {SyncGroup, 5}, {SyncNone, 0}} {
		var calls atomic.Uint64
		s := openTest(t, Options{Sync: tc.mode, SegmentBytes: 1 << 20, Fsync: func(f *os.File) error {
			calls.Add(1)
			return f.Sync()
		}})
		for i := 0; i < 5; i++ {
			var b Batch
			for r := 0; r < 3; r++ {
				b.Put(fmt.Sprintf("k%d-%d", i, r), []byte("v"))
			}
			if err := s.Apply(&b); err != nil {
				t.Fatalf("%v: Apply: %v", tc.mode, err)
			}
		}
		if st := s.Stats(); st.Syncs != tc.want || calls.Load() != tc.want || st.Commits != 5 || st.Puts != 15 {
			t.Fatalf("%v: %d fsyncs for %+v, want %d", tc.mode, calls.Load(), st, tc.want)
		}
	}
}

// TestOversizedRecordRejected: a record recovery would refuse is refused
// at Append instead — nothing of its unit is written, and the store keeps
// taking writes that reopen intact.
func TestOversizedRecordRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	s := openTest(t, Options{Path: dir})
	if err := s.Put("before", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	var b Batch
	b.Put("small", []byte("v"))
	b.Put(strings.Repeat("k", maxKeyLen+1), []byte("v"))
	if _, err := s.Append(&b); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Append with an oversized key = %v, want ErrTooLarge", err)
	}
	if s.Has("small") || s.Len() != 1 {
		t.Fatalf("rejected unit partly applied: %d keys", s.Len())
	}
	if err := s.Put("after", []byte("v")); err != nil {
		t.Fatalf("Put after rejection: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := Open(Options{Path: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	for _, k := range []string{"before", "after"} {
		mustGet(t, s2, k, "v")
	}
	if st := s2.Stats(); s2.Len() != 2 || st.TruncatedBytes != 0 {
		t.Fatalf("reopen: %d keys, %d bytes truncated; want 2, 0", s2.Len(), st.TruncatedBytes)
	}
}

package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// compactFixture fills a store with overwrites, deletes and write-once
// keys spread over many sealed segments and returns every acknowledged
// key's latest value ("" for a deleted key). Key k3's put sits in an early
// segment and its tombstone in a later one, so a crash that loses the
// tombstone's segment but keeps the put's resurrects it.
func compactFixture(t *testing.T, s *Store) map[string]string {
	t.Helper()
	want := make(map[string]string)
	put := func(k, v string) {
		if err := s.Put(k, []byte(v)); err != nil {
			t.Fatalf("Put(%s): %v", k, err)
		}
		want[k] = v
	}
	pad := strings.Repeat("x", 48)
	for round := 0; round < 12; round++ {
		if round%4 == 0 {
			// Written once: their only copies stay in sealed segments
			// for the merge to carry over.
			put(fmt.Sprintf("cold%d", round), "c-"+pad)
		}
		for k := 0; k < 8; k++ {
			if round > 2 && k == 3 {
				continue
			}
			put(fmt.Sprintf("k%d", k), fmt.Sprintf("r%d-%s", round, pad))
		}
		if round == 6 {
			if err := del(s, "k3"); err != nil {
				t.Fatalf("delete k3: %v", err)
			}
			want["k3"] = ""
		}
	}
	put("k0", "latest") // the active segment holds the newest k0
	if st := s.Stats(); st.Segments < 4 {
		t.Fatalf("want several sealed segments, got %d", st.Segments)
	}
	return want
}

// checkRecovers opens dir and requires every acknowledged key at its
// latest value, deleted keys absent, and nothing else.
func checkRecovers(t *testing.T, dir, step string, want map[string]string) {
	t.Helper()
	s, err := Open(Options{Path: dir, CompactGarbage: -1})
	if err != nil {
		t.Fatalf("%s: reopen: %v", step, err)
	}
	defer s.Close()
	live := 0
	for k, v := range want {
		got, ok, err := s.Get(k)
		switch {
		case err != nil:
			t.Fatalf("%s: Get(%s): %v", step, k, err)
		case v == "" && ok:
			t.Fatalf("%s: deleted key %s resurrected as %q", step, k, got)
		case v != "" && (!ok || string(got) != v):
			t.Fatalf("%s: Get(%s) = %q, %v; want %q", step, k, got, ok, v)
		}
		if v != "" {
			live++
		}
	}
	if s.Len() != live {
		t.Fatalf("%s: recovered %d keys, want %d", step, s.Len(), live)
	}
}

// snapshotDir copies the regular files of dir into a fresh directory: the
// state a crash at this instant would leave on disk.
func snapshotDir(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		in.Close()
		out.Close()
	}
	return dst
}

// TestCompactCrashAtEachStep crashes a compaction after each of its
// durable steps — the merge file written, the merge installed over the
// lowest sealed segment, each superseded segment removed — and requires
// every crash state to recover every acknowledged key at its latest value.
func TestCompactCrashAtEachStep(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	var crashes []string
	compacting := false
	s := openTest(t, Options{
		Path:            dir,
		SegmentBytes:    1 << 10,
		CompactGarbage:  -1,
		CompactMinBytes: 1,
		Fsync: func(f *os.File) error {
			if err := f.Sync(); err != nil {
				return err
			}
			if compacting {
				crashes = append(crashes, snapshotDir(t, dir))
			}
			return nil
		},
	})
	want := compactFixture(t, s)
	sealed := s.Stats().Segments - 1
	compacting = true
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	compacting = false
	// The merge file, its installation, and one step per other sealed
	// segment removed.
	if len(crashes) < sealed+1 {
		t.Fatalf("compaction exposed %d durable steps over %d sealed segments, want %d",
			len(crashes), sealed, sealed+1)
	}
	for i, crash := range crashes {
		checkRecovers(t, crash, fmt.Sprintf("crash after step %d", i), want)
	}
	checkRecovers(t, snapshotDir(t, dir), "after compaction", want)
}

// TestCompactFailedRenameKeepsSegments: when the merge file cannot be
// installed (here it is gone by the time of the swap), the compaction
// fails with every sealed segment still on disk, so nothing acknowledged
// is lost.
func TestCompactFailedRenameKeepsSegments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	s := openTest(t, Options{
		Path:            dir,
		SegmentBytes:    1 << 10,
		CompactGarbage:  -1,
		CompactMinBytes: 1,
		Fsync: func(f *os.File) error {
			if strings.HasPrefix(filepath.Base(f.Name()), "merge-") {
				os.Remove(f.Name())
			}
			return f.Sync()
		},
	})
	want := compactFixture(t, s)
	if err := s.Compact(); err == nil {
		t.Fatal("Compact installed a merge file that no longer exists")
	}
	checkRecovers(t, snapshotDir(t, dir), "after failed compaction", want)
}

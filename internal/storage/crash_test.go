package storage

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestCrashRecovery re-executes the test binary as a writer child that
// hard-exits mid-stream (no Close, no final fsync), then reopens the log
// in the parent and checks the durability contract: every write the
// child acknowledged must survive — every acknowledged batch whole — no
// torn record may surface, and a batch the child appended without waiting
// for is there whole or not at all.
func TestCrashRecovery(t *testing.T) {
	if os.Getenv("STORAGE_CRASH_CHILD") == "1" {
		crashChild()
		return // unreachable; crashChild os.Exits
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashRecovery$")
	cmd.Env = append(os.Environ(),
		"STORAGE_CRASH_CHILD=1",
		"STORAGE_CRASH_DIR="+dir,
	)
	out, err := cmd.Output()
	if err == nil {
		t.Fatal("crash child exited cleanly; expected hard exit")
	}
	// Parse the child's acked-key stream. Keys before the "SYNCED" marker
	// were covered by one Wait on the last of their commits and MUST
	// survive; keys after it were acked by group commit and must also
	// survive (the ack implies fsync).
	acked := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		line := sc.Text()
		if line == "SYNCED" || line == "" {
			continue
		}
		k, v, ok := strings.Cut(line, "=")
		if !ok {
			t.Fatalf("bad child output line %q", line)
		}
		acked[k] = v
	}
	if len(acked) < 10 {
		t.Fatalf("child acked only %d writes before crashing: %q", len(acked), out)
	}

	s, err := Open(Options{Path: dir})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer s.Close()
	for k, v := range acked {
		got, ok, err := s.Get(k)
		if err != nil || !ok || string(got) != v {
			t.Errorf("acked write lost: Get(%s) = %q, %v, %v; want %q", k, got, ok, err, v)
		}
	}
	// Whatever else replayed must be a well-formed record (Get succeeds);
	// torn tails are truncated, never surfaced.
	if err := s.Scan("", func(k string, v []byte) bool {
		if _, ok, err := s.Get(k); err != nil || !ok {
			t.Errorf("recovered key %q unreadable: %v %v", k, ok, err)
		}
		return true
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	// Commit units are atomic whether or not they were acknowledged.
	perBatch := make(map[string]int)
	if err := s.Scan("batch-", func(k string, v []byte) bool {
		id, _, _ := strings.Cut(strings.TrimPrefix(k, "batch-"), "/")
		perBatch[id]++
		return true
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(perBatch) < crashBatches {
		t.Fatalf("recovered %d batches, the child acknowledged %d", len(perBatch), crashBatches)
	}
	for id, n := range perBatch {
		if n != crashBatchRecords {
			t.Errorf("batch %s recovered %d of %d records", id, n, crashBatchRecords)
		}
	}
	// The store stays writable after crash recovery.
	if err := s.Put("post-crash", []byte("ok")); err != nil {
		t.Fatalf("Put after crash recovery: %v", err)
	}
}

// The crash child acknowledges crashBatches batches of crashBatchRecords
// records each, then appends a few more without waiting for them.
const crashBatches, crashBatchRecords = 20, 4

// crashChild runs in the re-executed process: write, ack over stdout,
// then die without cleanup.
func crashChild() {
	dir := os.Getenv("STORAGE_CRASH_DIR")
	s, err := Open(Options{Path: dir, SegmentBytes: 8 << 10})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Phase 1: appends made durable together by one Wait on the last.
	var last uint64
	for i := 0; i < 20; i++ {
		var b Batch
		b.Put(fmt.Sprintf("pre-%02d", i), []byte(fmt.Sprintf("v%d", i)))
		seq, err := s.Append(&b)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		last = seq
	}
	if err := s.Wait(last); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for i := 0; i < 20; i++ {
		fmt.Printf("pre-%02d=v%d\n", i, i)
	}
	fmt.Println("SYNCED")
	// Phase 2: group-committed writes; each ack implies an fsync covered it.
	for i := 0; i < 30; i++ {
		k, v := fmt.Sprintf("post-%02d", i), fmt.Sprintf("v%d", i)
		if err := s.Put(k, []byte(v)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("%s=%s\n", k, v)
	}
	// Phase 3: batches; an ack covers every record of the unit. The last
	// few are appended and never waited for.
	for i := 0; i < crashBatches+5; i++ {
		var b Batch
		for r := 0; r < crashBatchRecords; r++ {
			b.Put(fmt.Sprintf("batch-%02d/%d", i, r), []byte(fmt.Sprintf("v%d", i)))
		}
		if i >= crashBatches {
			if _, err := s.Append(&b); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			continue
		}
		if err := s.Apply(&b); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for r := 0; r < crashBatchRecords; r++ {
			fmt.Printf("batch-%02d/%d=v%d\n", i, r, i)
		}
	}
	os.Stdout.Sync()
	// Die with the store open: no Close, no deferred cleanup.
	os.Exit(3)
}

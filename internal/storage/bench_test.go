package storage

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// benchStore opens a store preloaded with n sequential keys.
func benchStore(b *testing.B, n int, sync SyncMode) *Store {
	b.Helper()
	s, err := Open(Options{
		Path: filepath.Join(b.TempDir(), "db"),
		Sync: sync,
	})
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	b.Cleanup(func() { s.Close() })
	val := make([]byte, 1024)
	for i := 0; i < n; i++ {
		if err := s.Put(benchKey(i), val); err != nil {
			b.Fatalf("preload: %v", err)
		}
	}
	return s
}

func benchKey(i int) string { return fmt.Sprintf("obj-%08d", i) }

// BenchmarkStorageGet measures point reads against a 100K-record store —
// the ROADMAP's file-backed benchmark regime (get < 4ms).
func BenchmarkStorageGet(b *testing.B) {
	const n = 100_000
	s := benchStore(b, n, SyncNone)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok, err := s.Get(benchKey(i % n)); err != nil || !ok {
			b.Fatalf("Get: %v %v", ok, err)
		}
	}
}

// BenchmarkStorageInsert measures group-committed durable writes (insert
// < 20ms in the ROADMAP regime): every Put returns only after an fsync has
// covered it. serial is one writer, who leads every fsync and shares none;
// parallel=8 is eight, whose commits queue behind the fsync in flight and
// share the next one.
func BenchmarkStorageInsert(b *testing.B) {
	val := make([]byte, 1024)
	b.Run("serial", func(b *testing.B) {
		s := benchStore(b, 0, SyncGroup)
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.Put(benchKey(i), val); err != nil {
				b.Fatalf("Put: %v", err)
			}
		}
	})
	b.Run("parallel=8", func(b *testing.B) {
		s := benchStore(b, 0, SyncGroup)
		var next atomic.Int64
		var wg sync.WaitGroup
		b.ResetTimer()
		b.ReportAllocs()
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
					if err := s.Put(benchKey(int(i)), val); err != nil {
						b.Errorf("Put: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}

// BenchmarkStorageApply measures one durable commit unit of four records —
// the shape of a live origin write (v: + two sa: + so:).
func BenchmarkStorageApply(b *testing.B) {
	b.Run("records=4", func(b *testing.B) {
		s := benchStore(b, 0, SyncGroup)
		val := make([]byte, 256)
		var batch Batch
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			batch = Batch{buf: batch.buf[:0]} // keep the buffer
			for r := 0; r < 4; r++ {
				batch.Put(benchKey(4*i+r), val)
			}
			if err := s.Apply(&batch); err != nil {
				b.Fatalf("Apply: %v", err)
			}
		}
	})
}

// BenchmarkStorageRecover measures cold-start log replay of a 100K-record
// store; one iteration is one full Open.
func BenchmarkStorageRecover(b *testing.B) {
	const n = 100_000
	s := benchStore(b, n, SyncNone)
	path := s.opts.Path
	if err := s.Close(); err != nil {
		b.Fatalf("Close: %v", err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := Open(Options{Path: path})
		if err != nil {
			b.Fatalf("Open: %v", err)
		}
		if s.Len() != n {
			b.Fatalf("recovered %d keys, want %d", s.Len(), n)
		}
		s.Close()
	}
}

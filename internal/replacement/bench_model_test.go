package replacement

import (
	"fmt"
	"testing"
)

// Model benchmarks compare the indexed policies ("opt") against their
// retained scanCore twins ("ref") on the model hot path. EvictionHeavy is
// the acceptance benchmark: a cache at capacity where every insertion
// forces a victim search plus an eviction (pressure 1).

var benchSpecs = []string{
	"lru", "mru", "fifo", "lru-3", "lrd", "mean", "win-10", "ewma-0.5",
}

func benchPolicy(b *testing.B, spec, impl string) Policy {
	b.Helper()
	switch impl {
	case "opt":
		factory, err := Parse(spec)
		if err != nil {
			b.Fatalf("Parse(%q): %v", spec, err)
		}
		return factory()
	case "ref":
		p, err := newReferencePolicy(spec)
		if err != nil {
			b.Fatalf("newReferencePolicy(%q): %v", spec, err)
		}
		return p
	default:
		b.Fatalf("unknown impl %q", impl)
		return nil
	}
}

// fillPolicy inserts n items with interleaved re-accesses so duration
// policies carry real histories (not just open first intervals).
func fillPolicy(p Policy, n int) float64 {
	now := 0.0
	for i := 0; i < n; i++ {
		now += 1.0
		p.OnInsert(obj(i), now)
	}
	for i := 0; i < n; i += 3 {
		now += 0.5
		p.OnAccess(obj(i), now)
	}
	return now
}

// BenchmarkModelAccess measures ns/access on a resident item (the touch
// path: state update plus heap re-key for indexed policies).
func BenchmarkModelAccess(b *testing.B) {
	const n = 1024
	for _, spec := range benchSpecs {
		for _, impl := range []string{"opt", "ref"} {
			b.Run(fmt.Sprintf("%s/%s", spec, impl), func(b *testing.B) {
				p := benchPolicy(b, spec, impl)
				now := fillPolicy(p, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					now += 1.0
					p.OnAccess(obj(i%n), now)
				}
			})
		}
	}
}

// BenchmarkModelVictim measures one victim selection (no mutation) at
// three cache sizes.
func BenchmarkModelVictim(b *testing.B) {
	for _, spec := range benchSpecs {
		for _, n := range []int{256, 1024, 4096} {
			for _, impl := range []string{"opt", "ref"} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", spec, n, impl), func(b *testing.B) {
					p := benchPolicy(b, spec, impl)
					now := fillPolicy(p, n)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						now += 1.0
						p.Victim(now)
					}
				})
			}
		}
	}
}

// BenchmarkModelEvictionHeavy measures the full replacement cycle at a
// cache permanently at capacity: every insertion selects a victim, evicts
// it, and admits a new item (pressure 1).
func BenchmarkModelEvictionHeavy(b *testing.B) {
	for _, spec := range benchSpecs {
		for _, n := range []int{256, 1024, 4096} {
			for _, impl := range []string{"opt", "ref"} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", spec, n, impl), func(b *testing.B) {
					p := benchPolicy(b, spec, impl)
					now := fillPolicy(p, n)
					next := n
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						now += 1.0
						v, ok := p.Victim(now)
						if !ok {
							b.Fatal("no victim at capacity")
						}
						p.Remove(v)
						p.OnInsert(obj(next), now)
						next++
					}
				})
			}
		}
	}
}

// BenchmarkModelVictims measures one bulk replacement cycle at the paper
// configuration's shape (bulkTrace: 3 200 residents, half fresh): select n
// victims with Victims, evict them, and insert n new items at the same
// timestamp, as InsertBatch does. ns/victim divides by n.
func BenchmarkModelVictims(b *testing.B) {
	for _, spec := range []string{"ewma-0.5", "mean", "lru"} {
		for _, n := range []int{1, 44, 1024} {
			for _, impl := range []string{"opt", "ref"} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", spec, n, impl), func(b *testing.B) {
					p := benchPolicy(b, spec, impl)
					tr := newBulkTrace(1, p)
					now, next := tr.now, tr.next
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						now += 1.0
						vs := p.Victims(now, n)
						for _, v := range vs {
							p.Remove(v)
						}
						for range vs {
							p.OnInsert(obj(next), now)
							next++
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/victim")
				})
			}
		}
	}
}

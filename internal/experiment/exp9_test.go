package experiment

import "testing"

// TestExp9ParallelInvariance extends the Exp8 guarantee to the thin-client
// fleet sweep: identical rendered tables with 1 worker and with 8.
func TestExp9ParallelInvariance(t *testing.T) {
	base := Config{Seed: 4, NumObjects: 400, Days: 0.02}
	prev := SetDefaultWorkers(1)
	defer SetDefaultWorkers(prev)
	s := exp9(base, []int{8, 16}, 2)
	SetDefaultWorkers(8)
	p := exp9(base, []int{8, 16}, 2)
	if s.String() != p.String() {
		t.Fatalf("Exp9 tables differ:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
	}
}

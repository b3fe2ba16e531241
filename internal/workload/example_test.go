package workload_test

import (
	"fmt"

	"repro/internal/oodb"
	"repro/internal/rng"
	"repro/internal/workload"
)

// Generate a client's query stream: skewed heat over the database, three
// attributes per selected object, Poisson arrivals.
func Example() {
	db := oodb.New(oodb.Config{NumObjects: 500, RelSeed: 1})
	gen := workload.NewQueryGen(workload.QueryGenConfig{
		Kind:        workload.Associative,
		Heat:        workload.NewSkewedHeat(500, 7),
		DB:          db,
		Selectivity: 4,
	})
	arrival := workload.NewPoisson(0.01)
	r := rng.New(9)

	now := 0.0
	for i := 0; i < 2; i++ {
		now = arrival.Next(r, now)
		q := gen.Next(r)
		fmt.Printf("query %d: %d objects, %d attribute reads\n",
			q.Index, len(q.Objects), len(q.Reads))
	}
	// Output:
	// query 0: 4 objects, 12 attribute reads
	// query 1: 4 objects, 12 attribute reads
}

// The Bursty arrival pattern averages the Poisson rate over a day but
// concentrates 80% of it in the two commute windows.
func ExampleNewDefaultBursty() {
	perDay := 0.0
	for _, s := range workload.DefaultBurstySegments() {
		perDay += s.Rate * (s.EndHour - s.StartHour) * workload.SecondsPerHour
	}
	fmt.Printf("mean daily rate: %.3g/s\n", perDay/workload.SecondsPerDay)
	// Output:
	// mean daily rate: 0.01/s
}

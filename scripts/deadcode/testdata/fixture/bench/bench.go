// Package bench may use the option shim.
package bench

import "fixture/internal/experiment"

// Seeded builds a scenario through the shim.
func Seeded() int { return experiment.New(experiment.WithSeed(2)) }

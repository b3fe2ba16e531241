package experiment

import (
	"fmt"

	"repro/internal/stats"
)

// Replicated aggregates a configuration's metrics across independent
// replications (distinct seeds). The paper reports 4-day averages and
// notes "the standard deviation of our measurements is found to be very
// small, thus yielding very tight confidence intervals"; Replicate makes
// that claim checkable for any configuration.
type Replicated struct {
	Config   Config
	Replicas int

	HitRatio     stats.Summary
	MeanResponse stats.Summary
	ErrorRate    stats.Summary

	Results []Result
}

// Replicate runs cfg under n different seeds (cfg.Seed, cfg.Seed+1, ...)
// and aggregates the three headline metrics. The replicas execute on the
// default worker pool (see Runner); results and summary statistics are
// accumulated in seed order, so the output matches a serial loop exactly.
// It panics if n < 1.
func Replicate(cfg Config, n int) *Replicated {
	if n < 1 {
		panic("experiment: Replicate requires n >= 1")
	}
	rep := &Replicated{Config: Defaults(cfg), Replicas: n}
	cfgs := make([]Config, n)
	for i := 0; i < n; i++ {
		cfgs[i] = cfg
		cfgs[i].Seed = cfg.Seed + uint64(i)
	}
	for _, res := range (Runner{Workers: defaultWorkers}).RunBatch(cfgs) {
		rep.Results = append(rep.Results, res)
		rep.HitRatio.Add(res.HitRatio)
		rep.MeanResponse.Add(res.MeanResponse)
		rep.ErrorRate.Add(res.ErrorRate)
	}
	return rep
}

// String renders mean ± 95% CI for the three metrics.
func (r *Replicated) String() string {
	return fmt.Sprintf(
		"%s x%d: hit %.1f%%±%.1f  resp %.3fs±%.3f  err %.2f%%±%.2f",
		r.Config, r.Replicas,
		100*r.HitRatio.Mean(), 100*r.HitRatio.CI95(),
		r.MeanResponse.Mean(), r.MeanResponse.CI95(),
		100*r.ErrorRate.Mean(), 100*r.ErrorRate.CI95())
}

package serve_test

import (
	"testing"

	"spear/internal/baselines"
	"spear/internal/serve"
	"spear/internal/workload"
)

// mix is the two-class traffic the CLI and the benchmark use: a Poisson gold
// class and a bursty Gamma(0.5) batch class with the given mean gaps.
func mix(gold, batch float64) []serve.ClassConfig {
	return []serve.ClassConfig{
		{Name: "gold", Arrival: workload.ArrivalConfig{Kind: workload.ArrivalPoisson, Mean: gold}},
		{Name: "batch", Arrival: workload.ArrivalConfig{Kind: workload.ArrivalGamma, Mean: batch, Shape: 0.5}},
	}
}

// TestPackProbesFlatUnderOverload is what packing from the profile buys, as a
// property the probe counter makes deterministic: on the one-machine mix that
// overloads the cluster, the backlog at horizon 120 000 is four times the one
// at 30 000, and a job still costs the same number of earliest-start probes
// (within 10 %). The offsets the old scan tried per job grew with the backlog.
func TestPackProbesFlatUnderOverload(t *testing.T) {
	probesPerJob := func(horizon int64) float64 {
		s, err := serve.New(serve.Config{Seed: 1, Horizon: horizon, Classes: mix(150, 250)}, baselines.NewCPScheduler(), nil)
		if err != nil {
			t.Fatal(err)
		}
		log, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		probes, ok := s.Metrics().Value("spear_serve_pack_probes_total")
		if !ok || probes == 0 || log.Summary.Planned == 0 {
			t.Fatalf("horizon %d: %v probes (registered: %v) for %d planned jobs", horizon, probes, ok, log.Summary.Planned)
		}
		if last := log.Events[len(log.Events)-1]; last.Time < 2*horizon {
			t.Fatalf("horizon %d drained by %d: the mix no longer overloads the machine", horizon, last.Time)
		}
		return probes / float64(log.Summary.Planned)
	}
	short, long := probesPerJob(30000), probesPerJob(120000)
	t.Logf("probes per planned job: %.1f at horizon 30 000, %.1f at 120 000", short, long)
	if long > 1.1*short || long < 0.9*short {
		t.Errorf("probes per planned job %.1f at horizon 120 000 vs %.1f at 30 000: more than 10 %% apart", long, short)
	}
}

package serve_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"spear/internal/baselines"
	"spear/internal/sched"
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

// TestRunLogHashPinned pins the canonical bytes of five run logs. The hashes
// were computed at fb691a7, before commit packed plans from their profile, so
// a change to how a plan's offset is found cannot move a single placement
// without failing here. The last config overloads its machine: the backlog
// only grows, which is where the old offset scan missed hundreds of times per
// job.
func TestRunLogHashPinned(t *testing.T) {
	cases := []struct {
		name      string
		cfg       serve.Config
		scheduler sched.Scheduler
		want      string
	}{
		{"cp_m1",
			serve.Config{Seed: 7, Horizon: 20000, Classes: mix(1000, 1600)},
			baselines.NewCPScheduler(),
			"77561c960d6a83a93729c649a6e5607b1c3cb4a7afa5da09c4364b346bfb57e8"},
		{"tetris_m4",
			serve.Config{Seed: 7, Horizon: 200000, Machines: 4, Classes: mix(400, 700)},
			baselines.NewTetrisScheduler(),
			"3fc1cda655a8f74d7922371d9a156c0dc4d87ab008d296b41f14b859fc660d4c"},
		{"cp_m4_dump",
			serve.Config{Seed: 3, Horizon: 100000, Machines: 4, DumpSchedules: true, Classes: mix(400, 700)},
			baselines.NewCPScheduler(),
			"5fefffd18a423bf75f7392ac2f1873a29f87dc30073ef6e01727695a336e1844"},
		{"sjf_m2_inflight3_weibull",
			serve.Config{Seed: 5, Horizon: 50000, Machines: 2, MaxInFlight: 3, Classes: []serve.ClassConfig{
				{Name: "w", Arrival: workload.ArrivalConfig{Kind: workload.ArrivalWeibull, Mean: 300, Shape: 0.7}},
			}},
			baselines.NewSJFScheduler(),
			"a256c74429e30ed8a6c3b3db1a37f921a7167167b155f50e5c0e5568c734b8ed"},
		{"cp_m1_overloaded",
			serve.Config{Seed: 1, Horizon: 60000, Classes: mix(150, 250)},
			baselines.NewCPScheduler(),
			"8c9b49bf7707472aa5e271c400a485c0e639984d3afaa2be27f25ef1ba67a48f"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := serve.New(tc.cfg, tc.scheduler, nil)
			if err != nil {
				t.Fatal(err)
			}
			log, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			data, err := log.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("run log sha256 = %s, want %s (%d events, %d bytes)", got, tc.want, len(log.Events), len(data))
			}
		})
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

package serve_test

import (
	"testing"

	"spear/internal/baselines"
	"spear/internal/serve"
)

// BenchmarkServeSegment is one segment of the serve_cp_m4 benchmark workload:
// CP on four machines under the 400+700 mix (offered load about 0.7) for
// 200 000 slots, from an empty cluster to a drained one.
func BenchmarkServeSegment(b *testing.B) {
	cfg := serve.Config{Seed: 7, Horizon: 200000, Machines: 4, Classes: mix(400, 700)}
	var jobs, probes float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := serve.New(cfg, baselines.NewCPScheduler(), nil)
		if err != nil {
			b.Fatal(err)
		}
		log, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		jobs += float64(log.Summary.Planned)
		p, _ := s.Metrics().Value("spear_serve_pack_probes_total")
		probes += p
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e6/jobs, "us/job")
	b.ReportMetric(probes/jobs, "probes/job")
}

package serve_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"spear/internal/baselines"
	"spear/internal/obs"
	"spear/internal/serve"
	"spear/internal/stats"
	"spear/internal/workload"
)

func testConfig(seed int64) serve.Config {
	return serve.Config{
		Seed:    seed,
		Horizon: 300,
		Classes: []serve.ClassConfig{
			{Name: "gold", Tenant: "acme", Arrival: workload.ArrivalConfig{Kind: workload.ArrivalPoisson, Mean: 40}},
			{Name: "batch", Tenant: "beta", Arrival: workload.ArrivalConfig{Kind: workload.ArrivalGamma, Mean: 60, Shape: 0.5}},
		},
	}
}

// mustRun runs cfg with CP over tiny jobs.
func mustRun(t *testing.T, cfg serve.Config) *serve.RunLog {
	t.Helper()
	s, err := serve.NewTiny(cfg, baselines.NewCPScheduler(), nil)
	if err != nil {
		t.Fatal(err)
	}
	log, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// TestLoadRunLogNamesUnknownKeys: a log carrying a config key this build
// does not know is refused with an error naming the key, not loaded without
// it to diverge on replay. Older builds wrote each of these: searchBudget
// for MCTS runs, the job generator's template, and a class's maxJobs cap.
func TestLoadRunLogNamesUnknownKeys(t *testing.T) {
	data, err := mustRun(t, testConfig(11)).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ key, at, add string }{
		{"searchBudget", `"config": {`, `"searchBudget": 200,`},
		{"template", `"config": {`, `"template": {"Jobs": 99, "Dims": 2, "Capacity": 1000},`},
		{"maxJobs", `"name": "gold",`, `"maxJobs": 3,`},
	} {
		old := bytes.Replace(data, []byte(tc.at), []byte(tc.at+tc.add), 1)
		if bytes.Equal(old, data) {
			t.Fatalf("%s: the log has no %s to add the key to", tc.key, tc.at)
		}
		if _, err := serve.LoadRunLog(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), `"`+tc.key+`"`) {
			t.Errorf("LoadRunLog with a %s key: err = %v, want one naming the key", tc.key, err)
		}
	}
}

// TestDeterministicReplay is the acceptance criterion of the serving loop:
// the same seed must reproduce the run log byte for byte, and the CLI's
// replay path (load the log, re-run its embedded config) must agree.
func TestDeterministicReplay(t *testing.T) {
	first, err := mustRun(t, testConfig(11)).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	second, err := mustRun(t, testConfig(11)).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("two runs of the same seed produced different logs")
	}

	loaded, err := serve.LoadRunLog(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	replayBytes, err := mustRun(t, loaded.Config).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, replayBytes) {
		t.Fatal("replay from the loaded log differs from the original run")
	}

	other, err := mustRun(t, testConfig(12)).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(first, other) {
		t.Fatal("different seeds produced identical logs")
	}
}

// TestRunLogInvariants walks the event log checking the lifecycle of every
// job: arrive -> plan -> complete in order, sane per-job metrics, and a
// summary consistent with the events.
func TestRunLogInvariants(t *testing.T) {
	log := mustRun(t, testConfig(5))
	if log.Summary.Arrivals == 0 {
		t.Fatal("no arrivals in 300 slots")
	}
	if log.Summary.Admitted != log.Summary.Arrivals {
		t.Errorf("always-admit run rejected jobs: %+v", log.Summary)
	}
	if log.Summary.Completed != log.Summary.Planned || log.Summary.Completed != log.Summary.Admitted {
		t.Errorf("run did not drain: %+v", log.Summary)
	}

	type jobSeen struct {
		arrive, plan, complete bool
		arriveAt, start        int64
	}
	jobs := make(map[string]*jobSeen)
	lastTime := int64(-1)
	for _, ev := range log.Events {
		if ev.Time < lastTime {
			t.Fatalf("event log goes backwards at %+v", ev)
		}
		lastTime = ev.Time
		j := jobs[ev.Job]
		if j == nil {
			j = &jobSeen{}
			jobs[ev.Job] = j
		}
		switch ev.Kind {
		case "arrive":
			if ev.Time > testConfig(5).Horizon {
				t.Errorf("job %s arrived at %d, past the horizon", ev.Job, ev.Time)
			}
			j.arrive, j.arriveAt = true, ev.Time
		case "plan":
			if !j.arrive || j.complete {
				t.Errorf("plan out of order for %s", ev.Job)
			}
			if ev.QueueDelay != ev.Start-j.arriveAt {
				t.Errorf("job %s queue delay %d, want %d", ev.Job, ev.QueueDelay, ev.Start-j.arriveAt)
			}
			j.plan, j.start = true, ev.Start
		case "complete":
			if !j.plan {
				t.Errorf("complete before plan for %s", ev.Job)
			}
			if want := j.start + ev.Makespan; ev.Time != want {
				t.Errorf("job %s completed at %d, want start+makespan = %d", ev.Job, ev.Time, want)
			}
			if ev.JCT != ev.Time-j.arriveAt {
				t.Errorf("job %s JCT %d, want %d", ev.Job, ev.JCT, ev.Time-j.arriveAt)
			}
			if ev.Stretch < 1 {
				t.Errorf("job %s stretch %v < 1", ev.Job, ev.Stretch)
			}
			j.complete = true
		default:
			t.Errorf("unknown event kind %q", ev.Kind)
		}
	}
	for name, j := range jobs {
		if !j.complete {
			t.Errorf("job %s never completed", name)
		}
	}
	if f := log.Summary.JainFairness; f <= 0 || f > 1 {
		t.Errorf("global Jain fairness %v outside (0, 1]", f)
	}
	if len(log.Summary.Classes) != 2 {
		t.Fatalf("summary has %d classes, want 2", len(log.Summary.Classes))
	}
	for _, cs := range log.Summary.Classes {
		if cs.Completed > 0 && cs.MeanStretch < 1 {
			t.Errorf("class %s mean stretch %v < 1", cs.Class, cs.MeanStretch)
		}
	}
}

// TestClassJainMatchesRecomputation pins the running Σx / Σx² sums behind
// ClassSummary.Jain to the definition: bit-equal to stats.JainFairness over
// the class's completion times in completion order, as read back from the log.
func TestClassJainMatchesRecomputation(t *testing.T) {
	cfg := testConfig(5)
	cfg.Horizon = 3000
	log := mustRun(t, cfg)
	jcts := make(map[string][]int64)
	for _, ev := range log.Events {
		if ev.Kind == "complete" {
			jcts[ev.Class] = append(jcts[ev.Class], ev.JCT)
		}
	}
	for _, cs := range log.Summary.Classes {
		if cs.Completed < 2 {
			t.Fatalf("class %s completed %d jobs; the test needs several", cs.Class, cs.Completed)
		}
		want, err := stats.JainFairness(jcts[cs.Class])
		if err != nil {
			t.Fatal(err)
		}
		if cs.Jain != want {
			t.Errorf("class %s Jain = %v, recomputed %v", cs.Class, cs.Jain, want)
		}
	}
}

// TestTokenBucketAdmissionBoundary drives the serving loop with a bucket
// that can never refill: exactly BucketCap jobs are admitted and the rest
// are rejected, including the arrival that finds the bucket at zero.
func TestTokenBucketAdmissionBoundary(t *testing.T) {
	cfg := testConfig(3)
	cfg.Admission = serve.AdmissionConfig{Policy: serve.PolicyTokenBucket, BucketCap: 2, RefillPerSlot: 0}
	log := mustRun(t, cfg)
	if log.Summary.Arrivals <= 2 {
		t.Fatalf("test needs more than 2 arrivals, got %d", log.Summary.Arrivals)
	}
	if log.Summary.Admitted != 2 {
		t.Errorf("admitted %d jobs, want exactly the bucket capacity 2", log.Summary.Admitted)
	}
	if want := log.Summary.Arrivals - 2; log.Summary.Rejected != want {
		t.Errorf("rejected %d, want %d", log.Summary.Rejected, want)
	}
	if log.Summary.Completed != 2 {
		t.Errorf("completed %d, want 2", log.Summary.Completed)
	}
}

// TestTokenBucketRefill unit-tests the bucket clock math, including the
// exact-one-token boundary after a fractional refill.
func TestTokenBucketRefill(t *testing.T) {
	b, err := serve.NewTokenBucket(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, true, false} { // burst drains the full bucket
		if got := b.Admit(0); got != want {
			t.Fatalf("Admit(0) #%d = %v, want %v", i, got, want)
		}
	}
	if !b.Admit(2) { // two slots refill exactly one token
		t.Error("Admit(2) after a 2-slot refill at rate 0.5 should pass")
	}
	if b.Admit(3) { // half a token is not enough
		t.Error("Admit(3) with 0.5 tokens should fail")
	}
	if !b.Admit(4) { // exactly 1.0 tokens: the boundary admits
		t.Error("Admit(4) with exactly 1.0 tokens should pass")
	}
	if b.Admit(4) { // the boundary admit spent the last token
		t.Error("Admit(4) right after the boundary admit should fail")
	}
	// The bucket never overfills past its capacity: a long idle refills
	// exactly the 2-token burst.
	for i, want := range []bool{true, true, false} {
		if got := b.Admit(1000); got != want {
			t.Errorf("Admit(1000) #%d = %v, want %v", i, got, want)
		}
	}

	// NaN passes a plain `capacity < 1` test; a NaN or infinite bucket
	// rejects every arrival and its log cannot be marshalled.
	for _, bad := range []struct{ capacity, refill float64 }{
		{0.5, 1}, {2, -1},
		{math.NaN(), 1}, {math.Inf(1), 1},
		{2, math.NaN()}, {2, math.Inf(1)},
	} {
		if _, err := serve.NewTokenBucket(bad.capacity, bad.refill); err == nil {
			t.Errorf("capacity %v, refill rate %v accepted", bad.capacity, bad.refill)
		}
	}
}

// TestNewAdmissionSelectsPolicy pins the policy-name dispatch the CLI
// flags go through.
func TestNewAdmissionSelectsPolicy(t *testing.T) {
	var _ serve.Admission = serve.AlwaysAdmit{} // the default policy satisfies the interface
	always, err := serve.NewAdmission(serve.AdmissionConfig{})
	if err != nil || !always.Admit(0) {
		t.Fatalf("empty policy should be always-admit: %v", err)
	}
	tb, err := serve.NewAdmission(serve.AdmissionConfig{Policy: serve.PolicyTokenBucket, BucketCap: 1, RefillPerSlot: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !tb.Admit(0) || tb.Admit(0) {
		t.Error("capacity-1 bucket should admit exactly one job")
	}
	if _, err := serve.NewAdmission(serve.AdmissionConfig{Policy: "coin-flip"}); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestMaxInFlightQueueing caps the loop at one in-flight job and checks
// that planning respects the cap and later jobs actually queue.
func TestMaxInFlightQueueing(t *testing.T) {
	cfg := testConfig(7)
	cfg.MaxInFlight = 1
	// A bursty class guarantees backlog pressure.
	cfg.Classes[1].Arrival = workload.ArrivalConfig{Kind: workload.ArrivalGamma, Mean: 25, Shape: 0.3}
	log := mustRun(t, cfg)

	inflight, queued := 0, false
	for _, ev := range log.Events {
		switch ev.Kind {
		case "plan":
			inflight++
			if inflight > 1 {
				t.Fatalf("in-flight cap violated at %+v", ev)
			}
			if ev.QueueDelay > 0 {
				queued = true
			}
		case "complete":
			inflight--
		}
	}
	if !queued {
		t.Error("no job experienced queueing delay under MaxInFlight=1")
	}
	if log.Summary.Completed != log.Summary.Admitted {
		t.Errorf("backlog did not drain: %+v", log.Summary)
	}
}

// TestServeMetricsExposition checks the per-SLO-class series reach the
// Prometheus exposition.
func TestServeMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := serve.NewTiny(testConfig(9), baselines.NewCPScheduler(), reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	snap := s.Metrics()
	for _, name := range []string{
		"spear_serve_arrivals_total",
		"spear_serve_completed_total",
		"spear_serve_jain_fairness",
		"spear_serve_class_gold_arrivals_total",
		"spear_serve_class_gold_jct_slots_sum",
		"spear_serve_class_batch_stretch_sum",
	} {
		if _, ok := snap.Value(name); !ok {
			t.Errorf("exposition missing %s", name)
		}
	}
	if v, ok := snap.Value("spear_serve_completed_total"); !ok || v == 0 {
		t.Errorf("no completions recorded: %v", v)
	}
	if _, err := s.Run(); err == nil {
		t.Error("second Run on a consumed server succeeded")
	}
}

func TestConfigValidation(t *testing.T) {
	base := testConfig(1)
	cases := []struct {
		name   string
		mutate func(*serve.Config)
	}{
		{"zero horizon", func(c *serve.Config) { c.Horizon = 0 }},
		{"no classes", func(c *serve.Config) { c.Classes = nil }},
		{"duplicate class", func(c *serve.Config) { c.Classes[1].Name = c.Classes[0].Name }},
		{"unnamed class", func(c *serve.Config) { c.Classes[0].Name = "" }},
		{"negative max inflight", func(c *serve.Config) { c.MaxInFlight = -1 }},
		{"bad arrival", func(c *serve.Config) { c.Classes[0].Arrival.Mean = 0 }},
		{"arrivals stuck at slot 0", func(c *serve.Config) { c.Classes[0].Arrival.Mean = 1e-300 }},
		// Gaps nearly all below half a slot: a burst would never leave it.
		{"gamma shape 1e-300", func(c *serve.Config) {
			c.Horizon, c.Classes[0].Arrival = 100, workload.ArrivalConfig{Kind: workload.ArrivalGamma, Mean: 400, Shape: 1e-300}
		}},
		{"weibull shape 0.006", func(c *serve.Config) {
			c.Horizon, c.Classes[0].Arrival = 1000, workload.ArrivalConfig{Kind: workload.ArrivalWeibull, Mean: 400, Shape: 0.006}
		}},
		{"weibull shape 0.01", func(c *serve.Config) {
			c.Horizon, c.Classes[0].Arrival = 20000, workload.ArrivalConfig{Kind: workload.ArrivalWeibull, Mean: 400, Shape: 0.01}
		}},
		{"bad admission", func(c *serve.Config) { c.Admission.Policy = "coin-flip" }},
	}
	for _, tc := range cases {
		cfg := testConfig(1)
		cfg.Classes = append([]serve.ClassConfig(nil), base.Classes...)
		tc.mutate(&cfg)
		if _, err := serve.New(cfg, baselines.NewCPScheduler(), nil); err == nil {
			t.Errorf("%s: config accepted", tc.name)
		}
	}
	if _, err := serve.New(testConfig(1), nil, nil); err == nil {
		t.Error("nil scheduler accepted")
	}
}

// TestClassesSharingMetricSeriesRejected checks that two class names which
// sanitize to the same metric name are refused by name: otherwise both
// classes would count into one set of spear_serve_class_gold_* series.
func TestClassesSharingMetricSeriesRejected(t *testing.T) {
	cfg := testConfig(1)
	cfg.Classes[0].Name, cfg.Classes[1].Name = "Gold", "gold"
	_, err := serve.New(cfg, baselines.NewCPScheduler(), nil)
	if err == nil || !strings.Contains(err.Error(), `"Gold"`) || !strings.Contains(err.Error(), `"gold"`) {
		t.Fatalf("classes Gold and gold: err = %v, want an error naming both", err)
	}
}

// TestSharedRegistryRunsReportTheirOwnJobs: runs that share one registry add
// up in its metrics, but each run's log reports only its own jobs — so a
// replay through the registry of the run it checks still reproduces the log.
func TestSharedRegistryRunsReportTheirOwnJobs(t *testing.T) {
	cfg := serve.Config{Seed: 7, Horizon: 20000, Classes: mix(1000, 1600)}
	run := func(reg *obs.Registry) []byte {
		t.Helper()
		log, err := serve.Replay(cfg, baselines.NewCPScheduler(), reg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := log.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	private := run(nil)
	reg := obs.NewRegistry()
	for i := 1; i <= 2; i++ {
		if shared := run(reg); !bytes.Equal(shared, private) {
			t.Errorf("run %d through a shared registry logged %d bytes that differ from a private run's %d", i, len(shared), len(private))
		}
	}
	loaded, err := serve.LoadRunLog(bytes.NewReader(private))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := reg.Snapshot().Value("spear_serve_arrivals_total"); !ok || got != float64(2*loaded.Summary.Arrivals) {
		t.Errorf("shared registry counted %v arrivals (registered: %v), want both runs' %d", got, ok, 2*loaded.Summary.Arrivals)
	}
}

// TestHugeArrivalGapEndsClass: a class whose gaps overflow int64 ends, as
// one whose next gap passes the horizon does; it must not wrap into arrivals
// before time 0. Beside it a normal class keeps the run busy.
func TestHugeArrivalGapEndsClass(t *testing.T) {
	cfg := testConfig(1)
	cfg.Horizon = 2000
	cfg.Classes[0].Arrival = workload.ArrivalConfig{Kind: workload.ArrivalPoisson, Mean: 1e19}
	log := mustRun(t, cfg)
	for _, ev := range log.Events {
		if ev.Time < 0 || ev.JCT < 0 || ev.Start < 0 {
			t.Fatalf("event %+v is before time 0", ev)
		}
	}
	for _, c := range log.Summary.Classes {
		if c.MeanJCT < 0 || c.MeanQueueDelay < 0 {
			t.Errorf("class %s: mean JCT %v, mean queue delay %v", c.Class, c.MeanJCT, c.MeanQueueDelay)
		}
	}
	if got := log.Summary.Classes[0]; got.Arrivals != 0 {
		t.Errorf("class %s: %d arrivals with a mean gap of 1e19 slots in a 2000-slot horizon", got.Class, got.Arrivals)
	}
	if log.Summary.Completed == 0 {
		t.Error("the other class completed nothing: the run tested nothing")
	}
}

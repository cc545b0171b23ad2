package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"spear/internal/baselines"
	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/drl"
	"spear/internal/mcts"
	"spear/internal/obs"
	"spear/internal/sched"
	"spear/internal/serve"
	"spear/internal/simenv"
)

// smokeInputs is one shrunk set-up shared by the tests that need inputs.
func smokeInputs(t *testing.T) *inputs {
	t.Helper()
	in, err := setUp(2019, smokeSizes)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func checkReadings(t *testing.T, workload string, got map[string]reading, defs []metricDef, strictlyPositive bool) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics reported, catalogue has %d", workload, len(got), len(defs))
	}
	for _, d := range defs {
		r, ok := got[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is missing", workload, d.name)
		case r.Unit != d.unit:
			t.Errorf("%s: metric %s has unit %q, want %q", workload, d.name, r.Unit, d.unit)
		case math.IsNaN(r.Value) || math.IsInf(r.Value, 0):
			t.Errorf("%s: metric %s is not finite: %v", workload, d.name, r.Value)
		case r.Value < 0 || (strictlyPositive && r.Value == 0):
			t.Errorf("%s: metric %s has the wrong sign: %v", workload, d.name, r.Value)
		}
	}
}

// TestSmokeRun is the whole suite with shrunk counts: every workload, both
// passes, every metric present, finite and correctly signed, every output
// check green.
func TestSmokeRun(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "run.json")
	spans := filepath.Join(dir, "spans.jsonl")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-out", out, "-spans", spans}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\n%s", code, stderr.String())
	}
	reps, err := loadReports(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || len(reps[0].Workloads) != len(workloads) {
		t.Fatalf("want one report of %d workloads, got %+v", len(workloads), reps)
	}
	for i, wr := range reps[0].Workloads {
		if wr.Name != workloads[i].name {
			t.Errorf("workload %d is %s, want %s", i, wr.Name, workloads[i].name)
		}
		if !wr.Correct || wr.Failed != 0 || wr.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v", wr.Name, wr.Correct, wr.Attempted, wr.Failed, wr.Notes)
		}
		checkReadings(t, wr.Name, wr.EndToEnd, endToEnd, true)
		checkReadings(t, wr.Name, wr.PerLayer, perLayer, false)
		// The 0.85-1.15 band is for full-size runs; with smoke counts and
		// the rest of the test suite running beside it, the number only has
		// to exist. TestAttributionAddsUp checks the arithmetic.
		if c := wr.PerLayer["attribution.coverage"].Value; c <= 0 {
			t.Errorf("%s: attribution.coverage = %v", wr.Name, c)
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			if !strings.Contains(stdout.String(), d.name) {
				t.Errorf("metric %s is not printed", d.name)
			}
		}
	}
	data, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range spanNames {
		if !bytes.Contains(data, []byte(`"name":"`+name+`"`)) {
			t.Errorf("no %s span was written", name)
		}
	}
}

// TestDriverContract runs the command line the benchmark driver uses and
// checks the last line of standard output.
func TestDriverContract(t *testing.T) {
	for _, tc := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var stdout, stderr bytes.Buffer
		args := []string{"-smoke", "--workload", "mcts_dag100", "--seed", "3", "--seconds", "0.1", "--trace", tc.trace}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit code %d\n%s", tc.trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", tc.trace, err)
		}
		if len(raw) != 4 {
			t.Errorf("trace %s: last line has keys %v, want correct, attempted, failed, metrics", tc.trace, raw)
		}
		var line contractLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("trace %s: %+v", tc.trace, line)
		}
		checkReadings(t, "mcts_dag100", line.Metrics, tc.defs, tc.trace == "0")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "--workload", "no_such", "--trace", "0"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload must fail")
	}
}

// TestWrappersAreTransparent: the wrapped policy, expander and scheduler
// give the schedules the bare ones give.
func TestWrappersAreTransparent(t *testing.T) {
	in := smokeInputs(t)
	for name, c := range map[string]searchCase{"spear": spearDag100, "mcts": mctsDag100, "mcts_m4": mctsM4Dag100} {
		spec := c.spec(in.capacity)
		bare, err := c.build(in, engine{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(8, searchSpans)
		wrapped, err := c.build(in, engine{}, tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range in.dags[:2] {
			want, err := bare.Schedule(g, spec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := wrapped.Schedule(g, spec)
			if err != nil {
				t.Fatal(err)
			}
			if got.Makespan != want.Makespan || !reflect.DeepEqual(got.Placements, want.Placements) {
				t.Errorf("%s: wrapped schedule differs from bare (makespan %d vs %d)", name, got.Makespan, want.Makespan)
			}
		}
		if tr.policyCalls == 0 || tr.expanderCalls == 0 || len(tr.captured) == 0 {
			t.Errorf("%s: wrappers saw policy=%d expander=%d captured=%d", name, tr.policyCalls, tr.expanderCalls, len(tr.captured))
		}
	}

	g := in.dags[0]
	spec := cluster.Uniform(serveMachines, in.capacity)
	want, err := baselines.NewCPScheduler().Schedule(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(0, fewSpans)
	got, err := (&tracedScheduler{inner: baselines.NewCPScheduler(), tr: tr}).Schedule(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Placements, want.Placements) || tr.planNs <= 0 || len(tr.plans) != 1 {
		t.Errorf("traced scheduler: plan differs or was not recorded (%d plans)", len(tr.plans))
	}
}

// TestTracedRolloutDoesNotAllocate: the wrapped agent keeps the rollout on
// the allocation-free path the bare agent takes.
func TestTracedRolloutDoesNotAllocate(t *testing.T) {
	in := smokeInputs(t)
	agent, err := drl.NewAgent(in.net, in.feat, false)
	if err != nil {
		t.Fatal(err)
	}
	base, err := simenv.New(in.dags[0], in.capacity, simenv.Config{Window: in.feat.Window})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(0, searchSpans)
	rc := simenv.NewRolloutContext(&tracedAgent{inner: agent, tr: tr})
	rng := rand.New(rand.NewSource(1))
	rollout := func() {
		if _, err := rc.RolloutFrom(base, rng); err != nil {
			t.Fatal(err)
		}
	}
	rollout() // warm the scratch episode
	if allocs := testing.AllocsPerRun(20, rollout); allocs != 0 {
		t.Errorf("traced rollout allocates %v times per run", allocs)
	}
	if tr.policyCalls == 0 || tr.dropped != 0 {
		t.Errorf("policy calls %d, dropped spans %d", tr.policyCalls, tr.dropped)
	}
}

// panicky is a scheduler whose every call panics.
type panicky struct{}

func (panicky) Name() string { return "panicky" }
func (panicky) Schedule(*dag.Graph, cluster.Spec) (*sched.Schedule, error) {
	panic("boom")
}
func (panicky) LastStats() mcts.Stats { return mcts.Stats{} }
func (panicky) Metrics() obs.Snapshot { return nil }

// TestFailuresAreCounted: a panic, an error and an invalid schedule each
// count as a failed operation instead of ending the run.
func TestFailuresAreCounted(t *testing.T) {
	in := smokeInputs(t)
	spec := cluster.Single(in.capacity)
	run := runJobs(panicky{}, spec, in.dags, 3, 0, nil)
	if run.attempted != 3 || run.failed != 3 || len(run.jobMs) != 0 {
		t.Errorf("attempted %d failed %d samples %d", run.attempted, run.failed, len(run.jobMs))
	}
	if len(run.notes) == 0 || !strings.Contains(run.notes[0], "panic: boom") {
		t.Errorf("notes %v do not report the panic", run.notes)
	}
	if err := safely(func() error { return errors.New("plain") }); err == nil || err.Error() != "plain" {
		t.Errorf("safely changed a plain error: %v", err)
	}

	g := in.dags[0]
	plan, err := baselines.NewCPScheduler().Schedule(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkSchedule(g, spec, plan); err != nil {
		t.Errorf("a valid plan fails the check: %v", err)
	}
	plan.Makespan = 0
	if _, err := checkSchedule(g, spec, plan); err == nil {
		t.Error("a plan with a wrong makespan passes the check")
	}

	var o outcome
	checkConservation(&o, serve.Summary{Arrivals: 10, Admitted: 9, Rejected: 1, Completed: 8})
	if o.attempted != 10 || o.failed != 1 {
		t.Errorf("lost job not counted: attempted %d failed %d", o.attempted, o.failed)
	}
}

// TestMoreStopsHalfAnOperationPastTheDeadline: a fixed count ignores the
// clock, and a timed loop starts its next operation only when that is
// expected to end no later than half an operation past the deadline.
func TestMoreStopsHalfAnOperationPastTheDeadline(t *testing.T) {
	ago := func(s float64) time.Time { return time.Now().Add(-time.Duration(s * float64(time.Second))) }
	for _, tc := range []struct {
		i, n    int
		elapsed float64
		want    bool
	}{
		{i: 2, n: 3, elapsed: 100, want: true},
		{i: 3, n: 3, elapsed: 0, want: false},
		{i: 0, elapsed: 100, want: true},   // at least one operation
		{i: 2, elapsed: 15, want: true},    // two 7.5 s jobs: the third ends at 22.5 <= 20 + 3.75
		{i: 2, elapsed: 18, want: false},   // two 9 s jobs: the third would end at 27 > 20 + 4.5
		{i: 80, elapsed: 19.8, want: true}, // short operations run up to the deadline
		{i: 80, elapsed: 20.1, want: false},
	} {
		if got := more(tc.i, tc.n, ago(tc.elapsed), 20); got != tc.want {
			t.Errorf("more(i=%d, n=%d, elapsed %.1f s of 20) = %v, want %v", tc.i, tc.n, tc.elapsed, got, tc.want)
		}
	}
}

// TestAttributionAddsUp feeds attributeSearch counts and probe times whose
// parts are known, and checks shares, residual and coverage.
func TestAttributionAddsUp(t *testing.T) {
	probes := layerProbes{
		replay:    replayProbe{stepNs: 100, legalNs: 50, policyNs: 10, cloneNs: 200},
		cluster:   clusterProbe{placeNs: 40, cloneNs: 50, fitsNs: 5, fitsPerLegal: 2},
		rolloutUs: 16.2, // 100 steps x (100+50+10) + one clone
	}
	// 1000 iterations: each expands once (a clone, a step, a legal scan)
	// and rolls out once (a clone and 100 steps).
	counts := searchCounts{
		placed: 50_500, advances: 50_500, clones: 2_000,
		policyCalls: 100_000, expansions: 1_000, rollouts: 1_000, iterations: 1_000,
	}
	// Wall time = rollouts + expansion env work + 1 us of tree per iteration.
	expansionNs := 1_000.0 * (200 + 100 + 50)
	counts.wallNs = 1_000*16_200 + expansionNs + 1_000*1_000
	m := attributeSearch(counts, probes)
	if got := m["mcts.tree_ns_per_iteration"]; math.Abs(got-1000) > 1e-6 {
		t.Errorf("tree ns per iteration = %v, want 1000", got)
	}
	if m["nn.share"] != 0 || m["drl.self_share"] != 0 {
		t.Errorf("a random-policy search has nn share %v, drl share %v", m["nn.share"], m["drl.self_share"])
	}
	if got := m["attribution.coverage"]; math.Abs(got-1) > 1e-9 {
		t.Errorf("coverage = %v, want 1: the parts equal the whole here", got)
	}
	if got, want := m["cluster.share"], (50_500*40+2_000*50+101_000*2*5)/counts.wallNs; math.Abs(got-want) > 1e-12 {
		t.Errorf("cluster share = %v, want %v", got, want)
	}

	counts.drl = true
	counts.policyNs, counts.expanderCalls, counts.expanderNs = 100_000*40, 1_000, 1_000*40
	probes.nn.probsNs = 30
	m = attributeSearch(counts, probes)
	if got, want := m["nn.share"], 101_000*30/counts.wallNs; math.Abs(got-want) > 1e-12 {
		t.Errorf("nn share = %v, want %v", got, want)
	}
	if got, want := m["drl.self_share"], 101_000*10/counts.wallNs; math.Abs(got-want) > 1e-12 {
		t.Errorf("drl self share = %v, want %v", got, want)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 9, 3, 7}, 2, 8},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{3}, 3, 3},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", steady, steady, "lower", "within-bound"},
		{"slower", steady, []float64{120, 121, 119, 120, 120}, "lower", "worse"},
		{"slower is better when higher wins", steady, []float64{120, 121, 119, 120, 120}, "higher", "better"},
		{"every run faster", steady, []float64{90, 91, 92, 90, 91}, "lower", "better"},
		{"noisy", []float64{100, 140, 70, 100, 120}, []float64{105, 75, 135, 100, 95}, "lower", "unresolved"},
		{"small drift", steady, []float64{103, 104, 102, 103, 103}, "lower", "within-bound"},
	} {
		if got := verdict(tc.a, tc.b, tc.better, 0.10); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestReportsRoundTrip: reports appended to a file are what -compare reads,
// and the history form drops the layer numbers.
func TestReportsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mk := func(jobMs float64) report {
		return report{Commit: "c", Workloads: []workloadReport{{
			Name:     "mcts_dag100",
			Correct:  true,
			EndToEnd: map[string]reading{"job_ms_p50": {Value: jobMs, Unit: "ms"}},
			PerLayer: map[string]reading{"nn.share": {Value: 0, Unit: "ratio"}},
			Notes:    []string{"note"},
		}}}
	}
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	for _, v := range []float64{100, 101, 99} {
		if err := appendReport(a, mk(v)); err != nil {
			t.Fatal(err)
		}
		if err := appendReport(b, mk(v*1.5).endToEndOnly()); err != nil {
			t.Fatal(err)
		}
	}
	reps, err := loadReports(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 3 || reps[0].Workloads[0].PerLayer != nil || reps[0].Workloads[0].Notes != nil {
		t.Errorf("history form keeps layer numbers or notes: %+v", reps)
	}
	bounds := filepath.Join(dir, "BENCHMARK.json")
	spec := `{"workloads":[{"name":"mcts_dag100","why":"w"}],"end_to_end":[{"name":"job_ms_p50","unit":"ms","better":"lower","bound":0.1}]}`
	if err := os.WriteFile(bounds, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := compareFiles(&out, bounds, a, b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mcts_dag100") || !strings.Contains(out.String(), "worse") {
		t.Errorf("compare output:\n%s", out.String())
	}
	if _, err := loadReports(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing report file must be an error")
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json, the contract the
// driver reads, equal to what the program reports.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", boundsPath))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range bf.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
	}
}

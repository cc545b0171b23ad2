package experiments

import (
	"bytes"
	"io"
	"regexp"
	"strings"
	"sync"
	"testing"

	"spear/internal/core"
	"spear/internal/drl"
	"spear/internal/nn"
)

// tinySuite builds a Suite whose model trains in well under a second, so
// the whole registry can be exercised in tests.
func tinySuite(t *testing.T) *Suite {
	t.Helper()
	s := NewSuite(7)
	s.Feat = drl.Features{Window: 4, Horizon: 8, Dims: 2}
	s.ModelCfg = &core.ModelConfig{
		Feat:        s.Feat,
		TrainJobs:   2,
		TasksPerJob: 8,
		PretrainCfg: drl.PretrainConfig{Epochs: 3, Opt: nn.RMSProp{LR: 1e-3, Rho: 0.9, Eps: 1e-8}},
		ReinforceCfg: drl.TrainConfig{
			Epochs: 2, Rollouts: 2,
			Opt: nn.RMSProp{LR: 5e-4, Rho: 0.9, Eps: 1e-8},
		},
		Seed: 7,
	}
	return s
}

func TestNamesMatchRegistry(t *testing.T) {
	names := Names()
	want := []string{"fig3", "fig6a", "fig6b", "fig7a", "fig7b", "table1", "fig8a", "fig8b", "fig9a", "fig9b", "fig9c", "ablation", "gap"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("Names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	for _, r := range Registry() {
		if r.Description == "" {
			t.Errorf("%s has no description", r.Name)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	s := tinySuite(t)
	err := s.Run([]string{"nope"}, RunOptions{}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// The message lists what would have been accepted, sorted.
	if want := `"nope" (known: [ablation fig3 fig6a`; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
}

func TestTrainModelCachesAndReturnsCurve(t *testing.T) {
	s := tinySuite(t)
	curve, err := s.TrainModel()
	if err != nil {
		t.Fatalf("TrainModel: %v", err)
	}
	if len(curve) != 2 {
		t.Fatalf("curve len = %d", len(curve))
	}
	net := s.Net
	if _, err := s.TrainModel(); err != nil {
		t.Fatal(err)
	}
	if s.Net != net {
		t.Error("TrainModel retrained despite cached model")
	}
}

func TestFig3ReportsTrapAndEscape(t *testing.T) {
	if testing.Short() {
		t.Skip("search test")
	}
	s := tinySuite(t)
	r, err := s.Fig3()
	if err != nil {
		t.Fatalf("Fig3: %v", err)
	}
	makespans := map[string]int64{}
	for _, ar := range r.Results {
		makespans[ar.Name] = ar.Makespans[0]
	}
	for _, name := range []string{"Spear", "Graphene", "Tetris", "CP", "SJF"} {
		if _, ok := makespans[name]; !ok {
			t.Errorf("missing %s", name)
		}
	}
	if makespans["Graphene"] != 301 || makespans["Tetris"] != 301 {
		t.Errorf("heuristics should be trapped at 301: %v", makespans)
	}
	if makespans["Spear"] >= 301 {
		t.Errorf("Spear did not escape the trap: %d", makespans["Spear"])
	}
	if !strings.Contains(r.String(), "Fig. 3") {
		t.Errorf("report: %q", r.String())
	}
}

func TestFig7SweepShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep test")
	}
	s := tinySuite(t)
	r, err := s.Fig7()
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	if len(r.Points) < 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// Makespan at the largest budget should not exceed the smallest-budget
	// result (the paper's monotone-improvement claim, fuzzed by seed noise
	// only mildly at this scale).
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if last.MeanMakespan > first.MeanMakespan {
		t.Errorf("mean makespan rose with budget: %.1f -> %.1f", first.MeanMakespan, last.MeanMakespan)
	}
	if last.BeatsTetris < first.BeatsTetris {
		t.Errorf("win rate fell with budget: %d -> %d", first.BeatsTetris, last.BeatsTetris)
	}
	// Both fig7a and fig7b render from the same sweep.
	if !strings.Contains(r.MakespanTable(), "budget") || !strings.Contains(r.WinRateTable(), "win rate") {
		t.Error("tables missing headers")
	}
}

func TestTable1Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	s := tinySuite(t)
	r, err := s.Table1()
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(r.Elapsed) != len(r.Sizes) {
		t.Fatalf("rows = %d", len(r.Elapsed))
	}
	for i, row := range r.Elapsed {
		if len(row) != len(r.Budgets) {
			t.Fatalf("row %d cols = %d", i, len(row))
		}
	}
	if !strings.Contains(r.String(), "Table I") {
		t.Error("missing title")
	}
}

func TestFig9TraceAndC(t *testing.T) {
	if testing.Short() {
		t.Skip("trace test")
	}
	s := tinySuite(t)
	tr, err := s.Fig9Trace()
	if err != nil {
		t.Fatalf("Fig9Trace: %v", err)
	}
	if tr.Stats.Jobs != 99 {
		t.Errorf("jobs = %d", tr.Stats.Jobs)
	}
	if !strings.Contains(tr.CountTable(), "map") || !strings.Contains(tr.RuntimeTable(), "reduce") {
		t.Error("trace tables missing stages")
	}

	r, err := s.Fig9c()
	if err != nil {
		t.Fatalf("Fig9c: %v", err)
	}
	if r.Jobs != 12 {
		t.Errorf("quick-mode jobs = %d, want 12", r.Jobs)
	}
	if len(r.Reductions) != r.Jobs {
		t.Errorf("reductions = %d", len(r.Reductions))
	}
	if r.NoWorseShare < 0 || r.NoWorseShare > 1 {
		t.Errorf("NoWorseShare = %v", r.NoWorseShare)
	}
	if !strings.Contains(r.String(), "Graphene") {
		t.Error("report missing text")
	}
}

func TestFig8bCurveAndReferences(t *testing.T) {
	s := tinySuite(t)
	r, err := s.Fig8b()
	if err != nil {
		t.Fatalf("Fig8b: %v", err)
	}
	if len(r.Curve) != 2 {
		t.Errorf("curve len = %d", len(r.Curve))
	}
	if r.TetrisMean <= 0 || r.SJFMean <= 0 {
		t.Errorf("references: tetris %.1f sjf %.1f", r.TetrisMean, r.SJFMean)
	}
	if !strings.Contains(r.String(), "references") {
		t.Error("report missing reference lines")
	}
}

func TestAblationVariantsAllRun(t *testing.T) {
	if testing.Short() {
		t.Skip("search test")
	}
	s := tinySuite(t)
	r, err := s.Ablation()
	if err != nil {
		t.Fatalf("Ablation: %v", err)
	}
	if len(r.Results) != 6 {
		t.Fatalf("variants = %d, want 6", len(r.Results))
	}
	for _, ar := range r.Results {
		if len(ar.Makespans) != r.Graphs {
			t.Errorf("%s ran %d graphs, want %d", ar.Name, len(ar.Makespans), r.Graphs)
		}
	}
	if !strings.Contains(ablationTable(r), "Ablation") {
		t.Error("missing title")
	}
}

func TestGapExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("exact-solver test")
	}
	s := tinySuite(t)
	r, err := s.Gap()
	if err != nil {
		t.Fatalf("Gap: %v", err)
	}
	if len(r.Optimal) != r.Jobs || len(r.PerAlgo) != 6 {
		t.Fatalf("shape: %d optima, %d algos", len(r.Optimal), len(r.PerAlgo))
	}
	for i, gap := range r.MeanGaps {
		if gap < 0 {
			t.Errorf("%s has negative mean gap %.2f%% — solver or scheduler bug", r.PerAlgo[i].Name, gap)
		}
	}
	if !strings.Contains(r.String(), "Optimality gap") {
		t.Error("missing title")
	}
}

func TestRunWritesReports(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry test")
	}
	checkRun(t, tinySuite(t), []string{"fig9a", "fig9b", "fig8b"})
}

func TestEveryRegisteredExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole evaluation at quick scale")
	}
	s := tinySuite(t)
	s.Log = &bytes.Buffer{} // exercise the logging paths too
	checkRun(t, s, Names())
}

// checkRun runs names through the one runner and requires a non-empty
// report section and a CSV export (header plus data rows) for each.
func checkRun(t *testing.T, s *Suite, names []string) {
	t.Helper()
	sinks := &csvSinks{}
	var out bytes.Buffer
	if err := s.Run(names, RunOptions{CSV: sinks.open}, &out); err != nil {
		t.Fatalf("Run(%v): %v", names, err)
	}
	reports := sections(out.String())
	for _, name := range names {
		if strings.TrimSpace(reports[name]) == "" {
			t.Errorf("%s wrote nothing", name)
		}
		b := sinks.get(name)
		if b == nil || !b.closed {
			t.Errorf("%s CSV sink = %+v", name, b)
			continue
		}
		if lines := strings.Count(b.String(), "\n"); lines < 2 {
			t.Errorf("%s CSV has %d lines: %q", name, lines, b.String())
		}
		if !strings.Contains(strings.SplitN(b.String(), "\n", 2)[0], ",") {
			t.Errorf("%s CSV header missing: %q", name, b.String())
		}
	}
}

var sectionHeader = regexp.MustCompile(`(?m)^==== (\S+) ====\n`)

// sections splits a multi-experiment run's output into its reports by name.
func sections(out string) map[string]string {
	reports := map[string]string{}
	heads := sectionHeader.FindAllStringSubmatchIndex(out, -1)
	for i, h := range heads {
		end := len(out)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		reports[out[h[2]:h[3]]] = out[h[1]:end]
	}
	return reports
}

// csvSinks collects the CSV exports of a run; workers open sinks
// concurrently, so the map is locked.
type csvSinks struct {
	mu    sync.Mutex
	files map[string]*closableBuffer
}

func (c *csvSinks) open(name string) (io.WriteCloser, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.files == nil {
		c.files = map[string]*closableBuffer{}
	}
	b := &closableBuffer{}
	c.files[name] = b
	return b, nil
}

func (c *csvSinks) get(name string) *closableBuffer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.files[name]
}

type closableBuffer struct {
	bytes.Buffer
	closed bool
}

func (b *closableBuffer) Close() error {
	b.closed = true
	return nil
}

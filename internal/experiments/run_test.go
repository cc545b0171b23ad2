package experiments

import (
	"bytes"
	"errors"
	"io"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"spear/internal/obs"
)

// TestRunParallelUnknownName pins that names are validated before anything
// runs: one unknown name among valid ones trains nothing and prints nothing.
func TestRunParallelUnknownName(t *testing.T) {
	s := tinySuite(t)
	var out bytes.Buffer
	if _, err := s.Run([]string{"fig9a", "nope", "fig3"}, ParallelOptions{Jobs: 2}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
	if out.Len() != 0 || s.Net != nil {
		t.Errorf("work done before the name check: %d bytes written, model trained = %v", out.Len(), s.Net != nil)
	}
}

// TestRunParallelMatchesSequential pins the -j contract: independent cells on
// a worker pool must print byte-identical reports, in the requested order, to
// what one worker produces.
func TestRunParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several experiments at quick scale")
	}
	names := []string{"fig3", "fig7a", "fig9a", "fig9b"}

	seq := tinySuite(t)
	var want bytes.Buffer
	if _, err := seq.Run(names, ParallelOptions{Jobs: 1}, &want); err != nil {
		t.Fatalf("Run at Jobs 1: %v", err)
	}

	par := tinySuite(t)
	par.Obs = obs.NewRegistry()
	var got bytes.Buffer
	snap, err := par.Run(names, ParallelOptions{Jobs: 3}, &got)
	if err != nil {
		t.Fatalf("Run at Jobs 3: %v", err)
	}
	// Reports embed wall-clock timings (fig7a's runtime column); mask any
	// duration token before comparing — everything else must be identical.
	durations := regexp.MustCompile(`[0-9.]+(ns|µs|ms|s)\b`)
	norm := func(s string) string { return durations.ReplaceAllString(s, "<dur>") }
	if norm(got.String()) != norm(want.String()) {
		t.Errorf("parallel output diverges from sequential:\n--- parallel ---\n%s\n--- sequential ---\n%s",
			got.String(), want.String())
	}
	// The parent suite's caches must stay untouched: cells ran on shadows.
	if seq.trace != nil || par.trace != nil {
		t.Error("run leaked cell caches into the parent suite")
	}
	// The merged snapshot aggregates the private cell registries: fig7a ran
	// pure MCTS, so search iterations must be visible after the merge.
	if v, ok := snap.Value("spear_search_iterations_total"); !ok || v <= 0 {
		t.Errorf("merged snapshot search iterations = %v (ok=%v)", v, ok)
	}
	if len(snap) == 0 {
		t.Fatal("empty merged snapshot despite Obs registry")
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name > snap[i].Name {
			t.Fatalf("merged snapshot unsorted at %d: %q > %q", i, snap[i-1].Name, snap[i].Name)
		}
	}
}

// TestRunParallelCSV checks the CSV sink plumbing and that a single-name run
// omits the section headers.
func TestRunParallelCSV(t *testing.T) {
	s := tinySuite(t)
	sinks := &csvSinks{}
	var out bytes.Buffer
	if _, err := s.Run([]string{"fig9a"}, ParallelOptions{Jobs: 2, CSV: sinks.open}, &out); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if strings.Contains(out.String(), "==== fig9a ====") {
		t.Error("single-experiment run printed a section header")
	}
	b := sinks.get("fig9a")
	if b == nil || !b.closed || strings.Count(b.String(), "\n") < 2 {
		t.Errorf("fig9a CSV sink = %+v", b)
	}
}

// TestRunStreamsReportsInOrder pins that a report reaches the writer as soon
// as it and every earlier one are complete, not when the whole run ends: at
// Jobs 1 the second cell's CSV sink — opened when that cell finishes — waits
// for the first cell's section to have been written.
func TestRunStreamsReportsInOrder(t *testing.T) {
	s := tinySuite(t)
	w := &sectionWriter{arrived: make(chan struct{})}
	opt := ParallelOptions{Jobs: 1, CSV: func(name string) (io.WriteCloser, error) {
		if name == "table1" {
			select {
			case <-w.arrived:
			case <-time.After(30 * time.Second):
				return nil, errors.New("table1 finished before the fig9a section was written")
			}
		}
		return &closableBuffer{}, nil
	}}
	if _, err := s.Run([]string{"fig9a", "table1"}, opt, w); err != nil {
		t.Fatal(err)
	}
	if got := w.buf.String(); !(strings.Index(got, "==== fig9a ====") < strings.Index(got, "==== table1 ====")) {
		t.Errorf("sections out of requested order:\n%s", got)
	}
}

// sectionWriter closes arrived on the first write it receives.
type sectionWriter struct {
	buf     bytes.Buffer
	once    sync.Once
	arrived chan struct{}
}

func (w *sectionWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.arrived) })
	return w.buf.Write(p)
}

// TestRunReportsFailureAndContinues is the regression test for the documented
// `-run all -model m.gob`: with a pre-trained network there is no learning
// curve, so fig8b fails — and every experiment after it must still run.
func TestRunReportsFailureAndContinues(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole evaluation at quick scale")
	}
	trained := tinySuite(t)
	if _, err := trained.TrainModel(); err != nil {
		t.Fatal(err)
	}
	s := tinySuite(t)
	s.Net = trained.Net

	var out bytes.Buffer
	_, err := s.Run(Names(), ParallelOptions{Jobs: 1}, &out)
	if err == nil {
		t.Fatal("fig8b succeeded without a learning curve")
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "fig8b: ") || !strings.Contains(msg, "omit -model") || strings.Contains(msg, "\n") {
		t.Errorf("error = %q, want exactly the fig8b failure and its remedy", msg)
	}
	reports := sections(out.String())
	if len(reports) != len(Names()) {
		t.Errorf("%d sections printed, want %d", len(reports), len(Names()))
	}
	for _, name := range []string{"fig8a", "fig9c", "gap"} {
		if strings.TrimSpace(reports[name]) == "" {
			t.Errorf("%s did not run after the fig8b failure", name)
		}
	}
}

package experiments

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"spear/internal/drl"
)

// TestRunChecksNamesFirst pins that names are validated before anything
// runs: one unknown name among valid ones prints nothing and writes no CSV.
func TestRunChecksNamesFirst(t *testing.T) {
	s := tinySuite(t)
	sinks := &csvSinks{}
	var out bytes.Buffer
	if err := s.Run([]string{"fig9a", "nope", "fig3"}, RunOptions{CSV: sinks.open}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
	if out.Len() != 0 || len(sinks.files) != 0 {
		t.Errorf("work done before the name check: %d bytes written, %d CSVs opened", out.Len(), len(sinks.files))
	}
}

// TestRunExportsOneCSVPerCell pins that a cell's CSV is written once, named
// after its first view, whichever of its views was requested: -run all
// writes one file per cell, and -run fig6b writes fig6a.csv.
func TestRunExportsOneCSVPerCell(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole evaluation at the tiny scale")
	}
	t.Parallel()
	s := tinySuite(t)
	for _, tc := range []struct {
		names []string
		want  []string
	}{
		{Names(), []string{"ablation", "fig3", "fig6a", "fig7a", "fig8a", "fig8b", "fig9a", "fig9c", "gap", "table1"}},
		{[]string{"fig6b"}, []string{"fig6a"}},
		{[]string{"fig7b", "fig9b", "fig7a"}, []string{"fig7a", "fig9a"}},
	} {
		sinks := &csvSinks{}
		if err := s.Run(tc.names, RunOptions{CSV: sinks.open}, io.Discard); err != nil {
			t.Fatalf("Run(%v): %v", tc.names, err)
		}
		var got []string
		for name := range sinks.files {
			got = append(got, name)
		}
		slices.Sort(got)
		if !slices.Equal(got, tc.want) {
			t.Errorf("Run(%v) wrote CSVs %v, want %v", tc.names, got, tc.want)
		}
		if sinks.opens != len(tc.want) {
			t.Errorf("Run(%v) opened %d CSV sinks for %d files", tc.names, sinks.opens, len(tc.want))
		}
	}
}

// TestRunSingleNameCSV checks the CSV sink plumbing and that a single-name
// run omits the section headers.
func TestRunSingleNameCSV(t *testing.T) {
	s := tinySuite(t)
	sinks := &csvSinks{}
	var out bytes.Buffer
	if err := s.Run([]string{"fig9a"}, RunOptions{CSV: sinks.open}, &out); err != nil {
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
// as its cell is complete, not when the whole run ends: the second cell's CSV
// sink — opened when that cell finishes — waits for the first cell's section
// to have been written.
func TestRunStreamsReportsInOrder(t *testing.T) {
	s := tinySuite(t)
	w := &sectionWriter{arrived: make(chan struct{})}
	opt := RunOptions{CSV: func(name string) (io.WriteCloser, error) {
		if name == "table1" {
			select {
			case <-w.arrived:
			case <-time.After(30 * time.Second):
				return nil, errors.New("table1 finished before the fig9a section was written")
			}
		}
		return &closableBuffer{}, nil
	}}
	if err := s.Run([]string{"fig9a", "table1"}, opt, w); err != nil {
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

// TestRunReportsFailureAndContinues: a policy that does not read the
// suite's featurization fails every cell that schedules with it, the first
// of them fig3, and every experiment after a failing one must still run.
func TestRunReportsFailureAndContinues(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole evaluation at the tiny scale")
	}
	t.Parallel()
	s := tinySuite(t)
	var err error
	if s.Net, err = drl.DefaultNetwork(drl.DefaultFeatures(), rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	err = s.Run(Names(), RunOptions{}, &out)
	if err == nil {
		t.Fatal("a policy of the wrong input size scheduled")
	}
	var failed []string
	for _, line := range strings.Split(err.Error(), "\n") {
		name, _, _ := strings.Cut(line, ": ")
		failed = append(failed, name)
	}
	if want := []string{"fig3", "fig6a", "fig6b", "fig8a", "fig9c", "ablation", "gap"}; !slices.Equal(failed, want) {
		t.Errorf("failures %v, want %v:\n%v", failed, want, err)
	}
	reports := sections(out.String())
	if len(reports) != len(Names()) {
		t.Errorf("%d sections printed, want %d", len(reports), len(Names()))
	}
	for _, name := range []string{"fig7a", "table1", "fig8b", "fig9b"} {
		if strings.TrimSpace(reports[name]) == "" {
			t.Errorf("%s did not run after the fig3 failure", name)
		}
	}
}

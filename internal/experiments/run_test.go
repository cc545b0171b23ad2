package experiments

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRunParallelUnknownName pins that names are validated before anything
// runs: one unknown name among valid ones trains nothing and prints nothing.
func TestRunParallelUnknownName(t *testing.T) {
	s := tinySuite(t)
	var out bytes.Buffer
	if err := s.Run([]string{"fig9a", "nope", "fig3"}, RunOptions{}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
	if out.Len() != 0 || s.Net != nil {
		t.Errorf("work done before the name check: %d bytes written, model trained = %v", out.Len(), s.Net != nil)
	}
}

// TestRunParallelCSV checks the CSV sink plumbing and that a single-name run
// omits the section headers.
func TestRunParallelCSV(t *testing.T) {
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
	err := s.Run(Names(), RunOptions{}, &out)
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

package serve

import (
	"encoding/json"
	"fmt"
	"io"

	"spear/internal/obs"
	"spear/internal/sched"
)

// LogEvent is one entry of the run log. Kind is "arrive", "reject", "plan"
// or "complete"; the optional fields are populated per kind. No field ever
// carries wall-clock time — the log is a pure function of the Config, so
// re-running the config must reproduce it byte for byte.
type LogEvent struct {
	Time   int64  `json:"t"`
	Kind   string `json:"kind"`
	Job    string `json:"job"`
	Class  string `json:"class"`
	Tenant string `json:"tenant"`
	// Start and Makespan describe the committed plan (plan, complete).
	Start    int64 `json:"start,omitempty"`
	Makespan int64 `json:"makespan,omitempty"`
	// QueueDelay is plan start minus arrival, in slots (plan).
	QueueDelay int64 `json:"queueDelay,omitempty"`
	// JCT is completion minus arrival, in slots (complete).
	JCT int64 `json:"jct,omitempty"`
	// Stretch is JCT divided by the planned makespan (complete).
	Stretch float64 `json:"stretch,omitempty"`
	// Schedule is the committed plan, present only when
	// Config.DumpSchedules is set (plan).
	Schedule *sched.Schedule `json:"schedule,omitempty"`
}

// ClassSummary aggregates one class's run outcome.
type ClassSummary struct {
	Class          string  `json:"class"`
	Tenant         string  `json:"tenant"`
	Arrivals       int64   `json:"arrivals"`
	Rejected       int64   `json:"rejected"`
	Completed      int64   `json:"completed"`
	MeanJCT        float64 `json:"meanJctSlots"`
	MeanQueueDelay float64 `json:"meanQueueDelaySlots"`
	MeanStretch    float64 `json:"meanStretch"`
	Jain           float64 `json:"jainFairness"`
}

// Summary is the run-level aggregate of a serving run.
type Summary struct {
	FinalClock   int64          `json:"finalClockSlots"`
	Arrivals     int64          `json:"arrivals"`
	Admitted     int64          `json:"admitted"`
	Rejected     int64          `json:"rejected"`
	Planned      int64          `json:"planned"`
	Completed    int64          `json:"completed"`
	JainFairness float64        `json:"jainFairness"`
	Classes      []ClassSummary `json:"classes"`
}

// RunLog is the full record of one serving run: the configuration that
// produced it, every event in processing order, and the summary. It is the
// replay format — Replay(log.Config, ...) re-executes the run and must
// return an identical log.
type RunLog struct {
	Config  Config     `json:"config"`
	Events  []LogEvent `json:"events"`
	Summary Summary    `json:"summary"`
}

// Marshal renders the log in its canonical byte form: indented JSON with a
// trailing newline. Byte-identity of replays is defined over this form.
func (l *RunLog) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// LoadRunLog reads a log previously written via Marshal. A key this build
// does not know is refused by name: dropped, it would make a replay diverge
// with no word of why.
func LoadRunLog(r io.Reader) (*RunLog, error) {
	var l RunLog
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&l); err != nil {
		return nil, fmt.Errorf("serve: decode run log: %w", err)
	}
	return &l, nil
}

// Replay re-executes a run from its config with the given scheduler. The
// caller is responsible for supplying a scheduler equivalent to the one
// named by cfg.Algorithm; with a deterministic scheduler the returned log
// is byte-identical to the original.
func Replay(cfg Config, scheduler sched.Scheduler, reg *obs.Registry) (*RunLog, error) {
	s, err := New(cfg, scheduler, reg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

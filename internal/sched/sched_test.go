package sched

import (
	"errors"
	"strings"
	"testing"
	"unicode/utf8"

	"spear/internal/cluster"
	"spear/internal/dag"
	"spear/internal/resource"
)

// twoTaskChain builds a -> b with runtimes 3 and 2.
func twoTaskChain(t *testing.T) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder(1)
	a := b.AddTask("a", 3, resource.Of(4))
	bb := b.AddTask("b", 2, resource.Of(4))
	b.AddDep(a, bb)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func validChain(t *testing.T) (*dag.Graph, *Schedule) {
	g := twoTaskChain(t)
	return g, &Schedule{
		Algorithm:  "test",
		Placements: []Placement{{Task: 0, Start: 0}, {Task: 1, Start: 3}},
		Makespan:   5,
	}
}

func TestValidateAcceptsCorrectSchedule(t *testing.T) {
	g, s := validChain(t)
	if err := Validate(g, cluster.Single(resource.Of(5)), s); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	g, _ := validChain(t)
	capacity := resource.Of(5)
	tests := []struct {
		name string
		s    *Schedule
		want error
	}{
		{"nil schedule", nil, ErrNilSchedule},
		{"missing task", &Schedule{Placements: []Placement{{Task: 0, Start: 0}}, Makespan: 3}, ErrMissingTask},
		{"unknown task", &Schedule{Placements: []Placement{{Task: 0, Start: 0}, {Task: 7, Start: 3}}, Makespan: 5}, ErrMissingTask},
		{"duplicate task", &Schedule{Placements: []Placement{{Task: 0, Start: 0}, {Task: 0, Start: 3}}, Makespan: 5}, ErrDuplicateTask},
		{"negative start", &Schedule{Placements: []Placement{{Task: 0, Start: -1}, {Task: 1, Start: 3}}, Makespan: 5}, ErrNegativeStart},
		{"dependency violated", &Schedule{Placements: []Placement{{Task: 0, Start: 0}, {Task: 1, Start: 2}}, Makespan: 4}, ErrDependencyOrder},
		{"wrong makespan", &Schedule{Placements: []Placement{{Task: 0, Start: 0}, {Task: 1, Start: 3}}, Makespan: 9}, ErrWrongMakespan},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := Validate(g, cluster.Single(capacity), tt.s); !errors.Is(err, tt.want) {
				t.Errorf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestValidateCapacityViolation(t *testing.T) {
	// Two independent tasks that together exceed capacity but are scheduled
	// concurrently.
	b := dag.NewBuilder(1)
	b.AddTask("x", 3, resource.Of(4))
	b.AddTask("y", 3, resource.Of(4))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := &Schedule{
		Placements: []Placement{{Task: 0, Start: 0}, {Task: 1, Start: 1}},
		Makespan:   4,
	}
	if err := Validate(g, cluster.Single(resource.Of(5)), s); !errors.Is(err, ErrOverCapacity) {
		t.Errorf("err = %v, want ErrOverCapacity", err)
	}
	// With enough capacity the same schedule is fine.
	if err := Validate(g, cluster.Single(resource.Of(8)), s); err != nil {
		t.Errorf("err = %v, want nil", err)
	}
}

func TestGantt(t *testing.T) {
	g, s := validChain(t)
	out := s.Gantt(g, 20)
	if !strings.Contains(out, "makespan=5") {
		t.Errorf("missing makespan: %q", out)
	}
	for _, name := range []string{"a", "b"} {
		if !strings.Contains(out, name) {
			t.Errorf("missing task %q:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "#") {
		t.Errorf("missing bars:\n%s", out)
	}
	// Rows appear in start order: "a" row before "b" row.
	if strings.Index(out, "a ") > strings.Index(out, "b ") {
		t.Errorf("rows out of order:\n%s", out)
	}
}

func TestGanttEdgeCases(t *testing.T) {
	g, s := validChain(t)
	// Tiny width is clamped.
	if out := s.Gantt(g, 1); !strings.Contains(out, "#") {
		t.Errorf("clamped width lost bars:\n%s", out)
	}
	empty := &Schedule{Algorithm: "x"}
	if out := empty.Gantt(g, 20); !strings.Contains(out, "empty") {
		t.Errorf("empty schedule rendering: %q", out)
	}
}

func TestTruncate(t *testing.T) {
	if got := truncate("short", 12); got != "short" {
		t.Errorf("truncate short = %q", got)
	}
	if got := truncate("averylongtaskname", 8); len([]rune(got)) > 8 {
		t.Errorf("truncate long = %q (len %d)", got, len(got))
	}
}

func TestTruncateMultiByte(t *testing.T) {
	// Regression: truncate used to slice bytes, splitting multi-byte UTF-8
	// runes of non-ASCII task names and emitting invalid output.
	name := "データ処理タスク長い名前" // 12 runes, 36 bytes
	got := truncate(name, 8)
	if !utf8.ValidString(got) {
		t.Errorf("truncate produced invalid UTF-8: %q", got)
	}
	if n := utf8.RuneCountInString(got); n != 8 {
		t.Errorf("truncate to 8 runes produced %d runes: %q", n, got)
	}
	if want := "データ処理タス" /* 7 runes */ + "…"; got != want {
		t.Errorf("truncate = %q, want %q", got, want)
	}
	// A 12-rune name fits in 12 exactly — no truncation even though it is
	// 36 bytes long.
	if got := truncate(name, 12); got != name {
		t.Errorf("12-rune name truncated: %q", got)
	}
}

func TestGanttMultiByteNames(t *testing.T) {
	b := dag.NewBuilder(1)
	first := b.AddTask("長時間実行されるマップタスク", 3, resource.Of(1)) // > 12 runes, forces truncation
	second := b.AddTask("縮小", 2, resource.Of(1))
	b.AddDep(first, second)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := &Schedule{
		Algorithm:  "test",
		Placements: []Placement{{Task: first, Start: 0}, {Task: second, Start: 3}},
		Makespan:   5,
	}
	if err := Validate(g, cluster.Single(resource.Of(1)), s); err != nil {
		t.Fatal(err)
	}
	out := s.Gantt(g, 20)
	if !utf8.ValidString(out) {
		t.Errorf("Gantt output is not valid UTF-8:\n%q", out)
	}
	if !strings.Contains(out, "…") {
		t.Errorf("long name was not truncated with an ellipsis:\n%s", out)
	}
	if strings.Contains(out, "�") {
		t.Errorf("Gantt output contains replacement characters:\n%s", out)
	}
}

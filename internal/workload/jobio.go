package workload

import (
	"encoding/json"
	"fmt"
	"io"

	"spear/internal/dag"
	"spear/internal/resource"
)

// Job documents are versioned by their "format" field. SaveJob writes none
// (0), the original encoding; FormatSingle and FormatMulti name the same
// layout. LoadJob accepts all three and rejects anything newer with a
// precise error.
const (
	FormatSingle = 1
	FormatMulti  = 2
)

// CheckFormat validates a job document's format field.
func CheckFormat(format int) error {
	if format < 0 || format > FormatMulti {
		return fmt.Errorf("unknown document format %d (this build understands formats up to %d)", format, FormatMulti)
	}
	return nil
}

// JobTaskSpec is one task of a serialized job.
type JobTaskSpec struct {
	Name    string  `json:"name"`
	Runtime int64   `json:"runtime"`
	Demand  []int64 `json:"demand"`
}

// JobSpec is a portable JSON description of a job DAG, so that real
// workloads can be scheduled with cmd/spear-sim without writing Go code.
// Edges reference tasks by index in the Tasks slice.
type JobSpec struct {
	// Format versions the document; see CheckFormat.
	Format int           `json:"format,omitempty"`
	Name   string        `json:"name"`
	Dims   int           `json:"dims"`
	Tasks  []JobTaskSpec `json:"tasks"`
	Edges  [][2]int      `json:"edges"`
}

// jobSpecFromGraph converts a DAG back into its serializable form.
func jobSpecFromGraph(g *dag.Graph, name string) *JobSpec {
	spec := &JobSpec{Name: name, Dims: g.Dims()}
	for id := 0; id < g.NumTasks(); id++ {
		task := g.Task(dag.TaskID(id))
		spec.Tasks = append(spec.Tasks, JobTaskSpec{
			Name:    task.Name,
			Runtime: task.Runtime,
			Demand:  task.Demand.Clone(),
		})
	}
	for id := 0; id < g.NumTasks(); id++ {
		for _, child := range g.Succ(dag.TaskID(id)) {
			spec.Edges = append(spec.Edges, [2]int{id, int(child)})
		}
	}
	return spec
}

// Graph builds the DAG described by the spec, running the full Builder
// validation (dimensions, runtimes, acyclicity).
func (spec *JobSpec) Graph() (*dag.Graph, error) {
	b := dag.NewBuilder(spec.Dims)
	ids := make([]dag.TaskID, len(spec.Tasks))
	for i, task := range spec.Tasks {
		ids[i] = b.AddTask(task.Name, task.Runtime, resource.Of(task.Demand...))
	}
	for _, e := range spec.Edges {
		if e[0] < 0 || e[0] >= len(ids) || e[1] < 0 || e[1] >= len(ids) {
			return nil, fmt.Errorf("workload: job %q edge %v out of range", spec.Name, e)
		}
		b.AddDep(ids[e[0]], ids[e[1]])
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("workload: job %q: %w", spec.Name, err)
	}
	return g, nil
}

// SaveJob writes a job as indented JSON.
func SaveJob(w io.Writer, g *dag.Graph, name string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jobSpecFromGraph(g, name))
}

// LoadJob reads a job previously written by SaveJob (or hand-authored) and
// returns the validated DAG.
func LoadJob(r io.Reader) (*dag.Graph, string, error) {
	var spec JobSpec
	if err := json.NewDecoder(r).Decode(&spec); err != nil {
		return nil, "", fmt.Errorf("workload: decode job: %w", err)
	}
	if err := CheckFormat(spec.Format); err != nil {
		return nil, "", fmt.Errorf("workload: job %q: %w", spec.Name, err)
	}
	if len(spec.Tasks) == 0 {
		return nil, "", fmt.Errorf("workload: job %q has no tasks", spec.Name)
	}
	g, err := spec.Graph()
	if err != nil {
		return nil, "", err
	}
	return g, spec.Name, nil
}

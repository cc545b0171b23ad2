// Package obs is the observability layer shared by every component in this
// repository: lock-free atomic counters, gauges and duration timers, grouped
// in a Registry whose Snapshot renders both a Go value and the Prometheus
// text exposition format.
//
// The design constraint is the rollout hot path: metrics are pre-allocated
// at scheduler construction, every update is a single atomic operation, and
// nothing on the update path allocates or takes a lock — so the
// AllocsPerRun gates on the inference fast path hold with instrumentation
// enabled, and concurrent search workers can hammer shared counters
// safely (the package is exercised under -race).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64 //spear:atomic
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n, which must be non-negative for Prometheus semantics (not
// enforced on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic last-value metric.
type Gauge struct {
	v atomic.Int64 //spear:atomic
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// SetMax raises the value to n if n is larger (high-water mark).
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// FloatCounter is an atomic float64 accumulator (CAS on the bit pattern).
type FloatCounter struct {
	bits atomic.Uint64 //spear:atomic
}

// Add accumulates x.
func (f *FloatCounter) Add(x float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Load returns the accumulated value.
func (f *FloatCounter) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// FloatGauge is an atomic float64 last-value metric (store on the bit
// pattern), for gauges whose value is fractional — e.g. a fairness index in
// [0, 1] that an int64 Gauge would truncate.
type FloatGauge struct {
	bits atomic.Uint64 //spear:atomic
}

// Set replaces the value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *FloatGauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Timer accumulates wall-clock durations and an observation count.
type Timer struct {
	nanos, count atomic.Int64 //spear:atomic
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	t.nanos.Add(int64(d))
	t.count.Add(1)
}

// ObserveSince records the time elapsed since began.
func (t *Timer) ObserveSince(began time.Time) { t.Observe(time.Since(began)) }

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration { return time.Duration(t.nanos.Load()) }

// Count returns how many durations were observed.
func (t *Timer) Count() int64 { return t.count.Load() }

// metricKind classifies a registered metric.
type metricKind uint8

// Metric kinds.
const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindFloatCounter
	kindFloatGauge
	kindTimer
)

// Sample is one rendered metric value.
type Sample struct {
	// Name is the Prometheus metric name.
	Name string
	// Help is the one-line description.
	Help string
	// Type is the Prometheus type label: "counter" or "gauge".
	Type string
	// Value is the sample value.
	Value float64
}

// Snapshot is a point-in-time rendering of a registry, sorted by name.
type Snapshot []Sample

// Value returns the sample with the given name.
func (s Snapshot) Value(name string) (float64, bool) {
	for _, smp := range s {
		if smp.Name == name {
			return smp.Value, true
		}
	}
	return 0, false
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): a # HELP and # TYPE line per metric followed by
// the sample.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, smp := range s {
		if smp.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", smp.Name, smp.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", smp.Name, smp.Type); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", smp.Name, formatValue(smp.Value)); err != nil {
			return err
		}
	}
	return nil
}

// String renders the snapshot as Prometheus text.
func (s Snapshot) String() string {
	var b strings.Builder
	_ = s.WritePrometheus(&b) //spear:ignoreerr(writes land in a strings.Builder, which cannot fail)
	return b.String()
}

func formatValue(v float64) string {
	// Exact comparison on purpose: only bit-exact integers render as %d.
	if v == math.Trunc(v) && math.Abs(v) < 1e15 { //spear:floateq
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// entry is one registered metric.
type entry struct {
	name string
	help string
	kind metricKind
	ptr  any             // the typed metric, returned on duplicate registration
	coll func() []Sample // renders the current value(s)
}

// Registry is a named set of metrics. Registration takes a lock; updates to
// the returned metrics never do. Registering an existing name with the same
// kind returns the existing metric, so components sharing a registry share
// (and aggregate into) the same counters.
type Registry struct {
	mu      sync.Mutex
	entries []*entry          //spear:guardedby(mu)
	byName  map[string]*entry //spear:guardedby(mu)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byName: make(map[string]*entry)} }

func (r *Registry) register(name, help string, kind metricKind, mk func() (any, func() []Sample)) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName == nil {
		r.byName = make(map[string]*entry)
	}
	if e, ok := r.byName[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with kind %d, was %d", name, kind, e.kind))
		}
		return e.ptr
	}
	ptr, coll := mk()
	e := &entry{name: name, help: help, kind: kind, ptr: ptr, coll: coll}
	r.entries = append(r.entries, e)
	r.byName[name] = e
	return ptr
}

// Counter registers (or finds) a counter with the given name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, func() (any, func() []Sample) {
		c := &Counter{}
		return c, func() []Sample {
			return []Sample{{Name: name, Help: help, Type: "counter", Value: float64(c.Load())}}
		}
	}).(*Counter)
}

// Gauge registers (or finds) a gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, func() (any, func() []Sample) {
		g := &Gauge{}
		return g, func() []Sample {
			return []Sample{{Name: name, Help: help, Type: "gauge", Value: float64(g.Load())}}
		}
	}).(*Gauge)
}

// Float registers (or finds) a float accumulator with the given name.
func (r *Registry) Float(name, help string) *FloatCounter {
	return r.register(name, help, kindFloatCounter, func() (any, func() []Sample) {
		f := &FloatCounter{}
		return f, func() []Sample {
			return []Sample{{Name: name, Help: help, Type: "counter", Value: f.Load()}}
		}
	}).(*FloatCounter)
}

// FloatGauge registers (or finds) a float-valued gauge with the given name.
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	return r.register(name, help, kindFloatGauge, func() (any, func() []Sample) {
		g := &FloatGauge{}
		return g, func() []Sample {
			return []Sample{{Name: name, Help: help, Type: "gauge", Value: g.Load()}}
		}
	}).(*FloatGauge)
}

// Timer registers (or finds) a timer. It exposes two samples:
// <name>_seconds_total (accumulated duration) and <name>_count
// (observations).
func (r *Registry) Timer(name, help string) *Timer {
	return r.register(name, help, kindTimer, func() (any, func() []Sample) {
		t := &Timer{}
		return t, func() []Sample {
			return []Sample{
				{Name: name + "_seconds_total", Help: help, Type: "counter", Value: t.Total().Seconds()},
				{Name: name + "_count", Help: help + " (observations)", Type: "counter", Value: float64(t.Count())},
			}
		}
	}).(*Timer)
}

// MergeSnapshots folds several snapshots into one, matching samples by
// name: counters sum, gauges keep the maximum. It exists for workloads that
// run components on private registries (e.g. parallel experiment cells) and
// want one aggregate exposition at the end. Sample order follows the
// combined sorted name set.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	index := make(map[string]int)
	var out Snapshot
	for _, snap := range snaps {
		for _, smp := range snap {
			i, ok := index[smp.Name]
			if !ok {
				index[smp.Name] = len(out)
				out = append(out, smp)
				continue
			}
			if smp.Type == "gauge" {
				if smp.Value > out[i].Value {
					out[i].Value = smp.Value
				}
			} else {
				out[i].Value += smp.Value
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Snapshot renders every registered metric, sorted by sample name.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	entries := append([]*entry(nil), r.entries...)
	r.mu.Unlock()
	var out Snapshot
	for _, e := range entries {
		out = append(out, e.coll()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeFloatTimer(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}

	var g Gauge
	g.Set(7)
	if got := g.Load(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}

	var f FloatCounter
	f.Add(1.5)
	f.Add(2.25)
	if got := f.Load(); got != 3.75 {
		t.Errorf("float counter = %g, want 3.75", got)
	}

	var tm Timer
	tm.Observe(2 * time.Second)
	tm.Observe(3 * time.Second)
	if got := tm.Total(); got != 5*time.Second {
		t.Errorf("timer total = %v, want 5s", got)
	}
	if got := tm.Count(); got != 2 {
		t.Errorf("timer count = %d, want 2", got)
	}
}

func TestRegistryDuplicateRegistrationSharesMetric(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("spear_test_total", "help")
	b := r.Counter("spear_test_total", "help")
	if a != b {
		t.Fatal("duplicate registration returned a distinct counter")
	}
	a.Inc()
	b.Inc()
	if got, _ := r.Snapshot().Value("spear_test_total"); got != 2 {
		t.Errorf("shared counter = %g, want 2", got)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("spear_test_total", "help")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("spear_test_total", "help")
}

func TestSnapshotPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("spear_b_total", "counts b").Add(3)
	r.Gauge("spear_a_depth", "depth of a").Set(9)
	r.Timer("spear_c_time", "times c").Observe(1500 * time.Millisecond)

	snap := r.Snapshot()
	// Sorted by sample name.
	wantOrder := []string{"spear_a_depth", "spear_b_total", "spear_c_time_count", "spear_c_time_seconds_total"}
	if len(snap) != len(wantOrder) {
		t.Fatalf("snapshot has %d samples, want %d: %v", len(snap), len(wantOrder), snap)
	}
	for i, name := range wantOrder {
		if snap[i].Name != name {
			t.Errorf("sample %d = %s, want %s", i, snap[i].Name, name)
		}
	}

	text := snap.String()
	for _, want := range []string{
		"# HELP spear_a_depth depth of a",
		"# TYPE spear_a_depth gauge",
		"spear_a_depth 9",
		"# TYPE spear_b_total counter",
		"spear_b_total 3",
		"spear_c_time_seconds_total 1.5",
		"spear_c_time_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestSnapshotValueMissing(t *testing.T) {
	if _, ok := (Snapshot{}).Value("nope"); ok {
		t.Error("Value on empty snapshot reported ok")
	}
}

// TestConcurrentUpdates hammers one registry from many goroutines; run with
// -race this proves the update paths are data-race free.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("spear_hammer_total", "")
	g := r.Gauge("spear_hammer_depth", "")
	f := r.Float("spear_hammer_sum", "")
	tm := r.Timer("spear_hammer_time", "")

	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(int64(w))
				f.Add(0.5)
				tm.Observe(time.Microsecond)
			}
		}(w)
	}
	// Concurrent snapshots must also be safe.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = r.Snapshot()
		}()
	}
	wg.Wait()

	if got := c.Load(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Load(); got < 0 || got >= workers {
		t.Errorf("gauge = %d, want the last value some worker set, in [0, %d)", got, workers)
	}
	if got := f.Load(); got != workers*perWorker/2 {
		t.Errorf("float = %g, want %d", got, workers*perWorker/2)
	}
	if got := tm.Count(); got != workers*perWorker {
		t.Errorf("timer count = %d, want %d", got, workers*perWorker)
	}
}

// TestUpdatesDoNotAllocate gates the hot-path promise: counter, gauge,
// float and timer updates must never touch the heap.
func TestUpdatesDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("spear_alloc_total", "")
	g := r.Gauge("spear_alloc_depth", "")
	f := r.Float("spear_alloc_sum", "")
	tm := r.Timer("spear_alloc_time", "")
	var n int64
	if allocs := testing.AllocsPerRun(100, func() {
		n++
		c.Inc()
		c.Add(2)
		g.Set(n)
		f.Add(0.25)
		tm.Observe(time.Duration(n))
	}); allocs != 0 {
		t.Errorf("metric updates allocate %.1f times per run, want 0", allocs)
	}
}

func TestFloatGauge(t *testing.T) {
	r := NewRegistry()
	g := r.FloatGauge("spear_test_fairness", "a fractional gauge")
	if g.Load() != 0 {
		t.Errorf("zero value = %v", g.Load())
	}
	g.Set(0.875)
	if g.Load() != 0.875 {
		t.Errorf("Load = %v, want 0.875", g.Load())
	}
	g.Set(0.25) // last value wins, unlike a counter
	snap := r.Snapshot()
	v, ok := snap.Value("spear_test_fairness")
	if !ok || v != 0.25 {
		t.Errorf("snapshot value = %v, %v", v, ok)
	}
	if len(snap) != 1 || snap[0].Type != "gauge" {
		t.Errorf("snapshot = %+v, want one gauge sample", snap)
	}
	// Same name re-registered returns the same metric.
	if r.FloatGauge("spear_test_fairness", "a fractional gauge") != g {
		t.Error("re-registration returned a different gauge")
	}
}

func TestServeMetricsBundles(t *testing.T) {
	r := NewRegistry()
	m := NewServeMetrics(r)
	m.Arrivals.Inc()
	m.JainFairness.Set(0.5)
	cm := NewServeClassMetrics(r, "Gold-SLO")
	cm.Completed.Inc()
	cm.JCTSum.Add(42)
	snap := r.Snapshot()
	for _, name := range []string{
		"spear_serve_arrivals_total",
		"spear_serve_jain_fairness",
		"spear_serve_class_gold_slo_completed_total",
		"spear_serve_class_gold_slo_jct_slots_sum",
		"spear_serve_class_gold_slo_jain_fairness",
	} {
		if _, ok := snap.Value(name); !ok {
			t.Errorf("snapshot missing %s", name)
		}
	}
	if v, _ := snap.Value("spear_serve_class_gold_slo_jct_slots_sum"); v != 42 {
		t.Errorf("jct sum = %v", v)
	}
	// A nil registry gets a private one.
	if NewServeMetrics(nil) == nil || NewServeClassMetrics(nil, "x") == nil {
		t.Error("nil registry rejected")
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"gold":      "gold",
		"Gold-SLO":  "gold_slo",
		"a b.c/d":   "a_b_c_d",
		"ÜBER":      "_ber",
		"":          "unnamed",
		"tenant 42": "tenant_42",
	}
	for in, want := range cases {
		if got := SanitizeMetricName(in); got != want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

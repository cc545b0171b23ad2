package drl

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"spear/internal/nn"
	"spear/internal/simenv"
)

// visit is one state an agent can be asked about: an episode snapshot and the
// actions offered (every legal one, or a subset, as the MCTS expander offers
// its untried ones).
type visit struct {
	env   *simenv.Env
	legal []simenv.Action
}

// randomVisits plays random episodes over a few jobs and snapshots every
// state on the way, some with a shrunken action list.
func randomVisits(t testing.TB, feat Features, episodes int, seed int64) []visit {
	t.Helper()
	cfg := simenv.Config{Window: feat.Window}
	rng := rand.New(rand.NewSource(seed))
	var visits []visit
	jobs, capacity := testJobs(t, 2, 14, seed)
	for ep := 0; ep < episodes; ep++ {
		e, err := simenv.New(jobs[ep%len(jobs)], capacity, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for !e.Done() {
			legal := e.LegalActions()
			offered := legal
			if len(legal) > 1 && rng.Intn(3) == 0 {
				offered = legal[:1+rng.Intn(len(legal)-1)]
			}
			visits = append(visits, visit{env: e.Clone(), legal: append([]simenv.Action(nil), offered...)})
			if err := e.Step(legal[rng.Intn(len(legal))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return visits
}

// contextWithMemo returns a one-row context whose memo is capped at maxSets
// sets (0 gives the uncached reference) and is past its trial, so it grows as
// soon as it has reason to.
func contextWithMemo(a *Agent, maxSets int) *AgentContext {
	ctx := a.newContext()
	ctx.memo = newProbsMemo(ctx.memo.keyLen, ctx.memo.width, maxSets)
	ctx.calls = memoTrialCalls
	return ctx
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestMemoAnswersEqualUncachedForward drives memos small enough to conflict
// and evict constantly, and one at the real cap, through the same stream of
// states — revisits included — and requires every answer to be the uncached
// forward pass's answer, bit for bit.
func TestMemoAnswersEqualUncachedForward(t *testing.T) {
	feat := testFeatures()
	agent := testAgent(t, feat, false, 71)
	// Every state comes round twice: once within a few steps, which even a
	// one-set memo still holds, and once after everything else.
	var visits []visit
	rng := rand.New(rand.NewSource(70))
	for _, v := range randomVisits(t, feat, 6, 72) {
		visits = append(visits, v)
		visits = append(visits, visits[len(visits)-1-rng.Intn(min(len(visits), 3))])
	}
	visits = append(visits, visits...)
	ref := contextWithMemo(agent, 0)
	for _, maxSets := range []int{1, 2, 8, memoMaxSets} {
		ctx := contextWithMemo(agent, maxSets)
		for i, v := range visits {
			want, err := agent.probsCtx(ref, v.env, v.legal)
			if err != nil {
				t.Fatal(err)
			}
			got, err := agent.probsCtx(ctx, v.env, v.legal)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Fatalf("maxSets=%d visit %d: memoised %v, uncached %v", maxSets, i, got, want)
			}
		}
		m := &ctx.memo
		if calls := ctx.calls - memoTrialCalls; calls != int64(len(visits)) || ctx.hits == 0 || ctx.hits >= calls {
			t.Errorf("maxSets=%d: %d calls, %d hits over %d visits", maxSets, calls, ctx.hits, len(visits))
		}
		if m.sets > maxSets || m.live > m.sets*memoWays {
			t.Errorf("maxSets=%d: grew to %d sets holding %d entries", maxSets, m.sets, m.live)
		}
		if maxSets <= 8 && m.evictions == 0 {
			t.Errorf("maxSets=%d never evicted", maxSets)
		}
		if maxSets == memoMaxSets && m.sets < 16 {
			t.Errorf("at the real cap %d distinct states left the memo at %d sets", len(visits)/4, m.sets)
		}
	}
	if ref.hits != 0 || ref.memo.sets != 0 {
		t.Errorf("bypassed memo reports %d hits, %d sets", ref.hits, ref.memo.sets)
	}
}

// TestRecordingContextNamesTheEvaluationBehindEveryAnswer drives a REINFORCE
// sampler's context through revisited states: after every call, hit or miss,
// ctx.record must name a record holding this very input and the distribution
// returned, one record per evaluation actually run, whether or not the memo
// still holds the entry; and a weight change starts the slab over.
func TestRecordingContextNamesTheEvaluationBehindEveryAnswer(t *testing.T) {
	feat := testFeatures()
	agent := testAgent(t, feat, false, 79)
	// Every state comes round again within a few steps, where even a one-set
	// memo still holds it, and once more after everything else.
	var visits []visit
	rng := rand.New(rand.NewSource(81))
	for _, v := range randomVisits(t, feat, 4, 80) {
		visits = append(visits, v)
		visits = append(visits, visits[len(visits)-1-rng.Intn(min(len(visits), 3))])
	}
	visits = append(visits, visits...)
	in := feat.InputSize()
	for _, maxSets := range []int{0, 1, memoMaxSets} {
		ctx := agent.newRecordingContext()
		ctx.memo.maxSets = maxSets
		ctx.calls = memoTrialCalls
		for i, v := range visits {
			probs, err := agent.probsCtx(ctx, v.env, v.legal)
			if err != nil {
				t.Fatal(err)
			}
			rec := ctx.records.row(ctx.record)
			if !sameBits(rec[:in], ctx.x) || !sameBits(rec[ctx.records.state:], probs) {
				t.Fatalf("maxSets=%d visit %d: record %d is not this evaluation", maxSets, i, ctx.record)
			}
		}
		calls := ctx.calls - memoTrialCalls
		if int64(ctx.records.n) != calls-ctx.hits || (maxSets == 0) != (ctx.hits == 0) {
			t.Errorf("maxSets=%d: %d records for %d calls and %d hits", maxSets, ctx.records.n, calls, ctx.hits)
		}
		ctx.memo.gen++ // as if the weights had changed
		if _, err := agent.probsCtx(ctx, visits[0].env, visits[0].legal); err != nil {
			t.Fatal(err)
		}
		if ctx.records.n != 1 || ctx.record != 0 {
			t.Errorf("maxSets=%d: after a weight change the slab holds %d records, the answer names %d", maxSets, ctx.records.n, ctx.record)
		}
	}
}

// TestMemoVerifiesTheWholeKey hands the memo different keys under one and the
// same hash: each must get its own answer back, and a third key with that
// hash none. It then fills one set past its ways and checks that the least
// recently used entry is the one that goes.
func TestMemoVerifiesTheWholeKey(t *testing.T) {
	const keyLen, width = 3, 2
	m := newProbsMemo(keyLen, width, 1)
	m.tagWords = 1
	out := make([]float64, width)
	key := func(i int) []uint64 { return []uint64{uint64(i), 7, 7} }
	val := func(i int) []float64 { return []float64{float64(i), -float64(i)} }
	const h = 0xABCDEF
	present := func(i int) bool {
		tag, ok := m.lookup(h, key(i), out)
		if ok && tag != uint64(10*i) {
			t.Errorf("key %d came back tagged %d", i, tag)
		}
		return ok
	}

	m.insert(h, key(1), val(1), 10, true)
	m.insert(h, key(2), val(2), 20, true)
	for i := 1; i <= 2; i++ {
		if !present(i) || !sameBits(out, val(i)) {
			t.Fatalf("key %d under a shared hash: got %v", i, out)
		}
	}
	if present(3) {
		t.Fatal("a key never inserted hit because its hash matched")
	}

	// Ways 3 and 4, then touch 1 so that 2 is the oldest; 5 evicts it.
	m.insert(h, key(3), val(3), 30, true)
	m.insert(h, key(4), val(4), 40, true)
	if !present(1) {
		t.Fatal("lost key 1")
	}
	m.insert(h, key(5), val(5), 50, true)
	if m.evictions != 1 || m.live != memoWays || m.sets != 1 {
		t.Fatalf("after overfilling one set: %d evictions, %d live, %d sets", m.evictions, m.live, m.sets)
	}
	for i, want := range []bool{1: true, 2: false, 3: true, 4: true, 5: true} {
		if i == 0 {
			continue
		}
		if got := present(i); got != want {
			t.Errorf("key %d present = %v, want %v", i, got, want)
		}
	}
}

// TestMemoGrowsOnDemandAndKeepsEntries fills a memo with a large cap: its
// storage must track what was inserted, and growth must lose nothing.
func TestMemoGrowsOnDemandAndKeepsEntries(t *testing.T) {
	const keyLen, width, n = 2, 1, 300
	m := newProbsMemo(keyLen, width, 1<<20)
	key := make([]uint64, keyLen)
	x := make([]float64, 1)
	for i := 0; i < n; i++ {
		x[0] = float64(i + 1)
		h := packKey(x, []bool{true}, key)
		m.insert(h, key, []float64{float64(i)}, 0, true)
	}
	if m.sets*memoWays > 4*n {
		t.Errorf("%d entries grew the memo to %d slots", n, m.sets*memoWays)
	}
	out := make([]float64, width)
	found := 0
	for i := 0; i < n; i++ {
		x[0] = float64(i + 1)
		h := packKey(x, []bool{true}, key)
		if _, ok := m.lookup(h, key, out); ok {
			found++
			if out[0] != float64(i) {
				t.Fatalf("entry %d came back as %v", i, out[0])
			}
		}
	}
	if found != m.live || found < n-int(m.evictions) {
		t.Errorf("found %d of %d entries; memo says %d live, %d evicted", found, n, m.live, m.evictions)
	}
	// Below the cap a set only evicts while the memo is under half full.
	if m.evictions > n/10 {
		t.Errorf("%d evictions while far below the cap", m.evictions)
	}
}

// TestMemoResetsWhenWeightsChange: what a context remembered under the old
// weights must not be served under new ones.
func TestMemoResetsWhenWeightsChange(t *testing.T) {
	feat := testFeatures()
	agent := testAgent(t, feat, true, 73)
	visits := randomVisits(t, feat, 1, 74)
	v := visits[len(visits)/2]
	ctx := agent.newContext()
	before, err := agent.probsCtx(ctx, v.env, v.legal)
	if err != nil {
		t.Fatal(err)
	}
	before = append([]float64(nil), before...)
	if _, err := agent.probsCtx(ctx, v.env, v.legal); err != nil || ctx.hits != 1 {
		t.Fatalf("second visit: hits = %d, err = %v", ctx.hits, err)
	}

	// One REINFORCE-style step on this very state moves the weights.
	net := agent.Network()
	s := net.NewScratch()
	probs, err := net.ProbsInto(s, ctx.x, ctx.mask)
	if err != nil {
		t.Fatal(err)
	}
	d := append([]float64(nil), probs...)
	d[feat.IndexFor(v.legal[0])] -= 1
	g := net.NewGrads()
	if err := net.BackwardBatchInto(s, d, 1, g); err != nil {
		t.Fatal(err)
	}
	if g.Norm() == 0 {
		t.Fatal("zero gradient: the update would not move the weights")
	}
	if err := net.Apply(g, nn.RMSProp{LR: 0.05, Rho: 0.9, Eps: 1e-8}); err != nil {
		t.Fatal(err)
	}

	want, err := agent.probsCtx(agent.newContext(), v.env, v.legal)
	if err != nil {
		t.Fatal(err)
	}
	if sameBits(want, before) {
		t.Fatal("the update did not change this state's distribution; the test proves nothing")
	}
	got, err := agent.probsCtx(ctx, v.env, v.legal)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, want) {
		t.Errorf("after Apply the old context answers %v, a fresh one %v", got, want)
	}
	wantAct, _ := agent.ChooseCtx(agent.newContext(), v.env, v.legal, nil)
	gotAct, _ := agent.ChooseCtx(ctx, v.env, v.legal, nil)
	if gotAct != wantAct {
		t.Errorf("after Apply the old context chooses %v, a fresh one %v", gotAct, wantAct)
	}
}

// TestProbsCtxZeroAllocsOnEveryPath gates the memoised one-row path once its
// memo has reached its cap: a hit, a miss that fills an empty way and a miss
// that evicts must all leave the heap alone.
func TestProbsCtxZeroAllocsOnEveryPath(t *testing.T) {
	feat := testFeatures()
	agent := testAgent(t, feat, false, 75)
	visits := randomVisits(t, feat, 2, 76)
	ctx := contextWithMemo(agent, 1)
	ask := func(v visit) {
		if _, err := agent.probsCtx(ctx, v.env, v.legal); err != nil {
			t.Fatal(err)
		}
	}
	ask(visits[0]) // grows the memo to its one set
	if allocs := testing.AllocsPerRun(100, func() { ask(visits[0]) }); allocs != 0 {
		t.Errorf("memo hit allocates %.1f times per run, want 0", allocs)
	}
	i, evictedBefore := 0, ctx.memo.evictions
	allocs := testing.AllocsPerRun(len(visits)-1, func() {
		i++
		ask(visits[i%len(visits)])
	})
	if allocs != 0 {
		t.Errorf("memo miss allocates %.1f times per run, want 0", allocs)
	}
	if ctx.memo.evictions == evictedBefore {
		t.Error("the miss gate never evicted")
	}
	// The network changing under a warm memo resets it without allocating.
	ctx.memo.gen++
	if allocs := testing.AllocsPerRun(1, func() { ask(visits[0]) }); allocs != 0 {
		t.Errorf("memo reset allocates %.1f times per run, want 0", allocs)
	}
}

// bytesPerRun reports the mean number of heap bytes f allocates.
func bytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestShortLivedContextCostsOneSmallSet bounds what the memo adds to a context
// that lives for one decision or one episode, at the paper's shape. Before
// the memo existed Agent.Choose built 13 objects (9.8 KB); now it also builds
// the key, the probs buffer, the kernel's index buffer and one four-entry set
// — and a whole greedy episode on a fresh context builds no more than that,
// because a memo does not grow during its first memoTrialCalls calls.
func TestShortLivedContextCostsOneSmallSet(t *testing.T) {
	feat := DefaultFeatures()
	agent := testAgent(t, feat, true, 77)
	visits := randomVisits(t, feat, 1, 78)
	choose := func() {
		if _, err := agent.Choose(visits[0].env, visits[0].legal, nil); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(50, choose); allocs > 18 {
		t.Errorf("Agent.Choose allocates %.0f objects, want at most 13 + 5", allocs)
	}
	if perCall := bytesPerRun(50, choose); perCall > 18<<10 {
		t.Errorf("Agent.Choose allocates %d bytes, want at most 9.8 KB + 8 KB", perCall)
	}

	episode := func() {
		if _, err := simenv.NewRolloutContext(agent).Rollout(visits[0].env.Clone(), nil); err != nil {
			t.Fatal(err)
		}
	}
	withMemo := bytesPerRun(20, episode)
	restore := SetMemoMaxSets(0)
	without := bytesPerRun(20, episode)
	restore()
	if withMemo > without+8<<10 {
		t.Errorf("a greedy episode on a fresh context allocates %d bytes, %d without the memo: more than one small set apart", withMemo, without)
	}
}

// FuzzMemoEquivalence lets the fuzzer pick which states a tiny memo sees, in
// what order and under which masks, and requires every answer to equal the
// uncached forward pass bit for bit.
func FuzzMemoEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3})
	f.Add([]byte{5, 5, 5, 133, 5, 250, 17, 5, 133})
	f.Add([]byte{})
	feat := testFeatures()
	net, err := DefaultNetwork(feat, rand.New(rand.NewSource(79)))
	if err != nil {
		f.Fatal(err)
	}
	agent, err := NewAgent(net, feat, false)
	if err != nil {
		f.Fatal(err)
	}
	visits := randomVisits(f, feat, 3, 80)
	ref := contextWithMemo(agent, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		ctx := contextWithMemo(agent, 2)
		for i, b := range data {
			// The low bits pick the state, the high bit whether only its
			// first action is offered: same input, different mask.
			v := visits[int(b&0x7f)%len(visits)]
			legal := v.legal
			if b&0x80 != 0 {
				legal = legal[:1]
			}
			want, err := agent.probsCtx(ref, v.env, legal)
			if err != nil {
				t.Fatal(err)
			}
			got, err := agent.probsCtx(ctx, v.env, legal)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Fatalf("step %d (byte %#x): memoised %v, uncached %v", i, b, got, want)
			}
		}
		// Every call either hit, filled an empty way or evicted.
		if m := &ctx.memo; m.live > m.sets*memoWays || m.sets > 2 || ctx.hits+int64(m.live)+m.evictions != int64(len(data)) {
			t.Fatalf("after %d calls: %d hits, %d live, %d evictions, %d sets", len(data), ctx.hits, m.live, m.evictions, m.sets)
		}
	})
}

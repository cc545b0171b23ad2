package drl

import (
	"math"
	"math/bits"
	"slices"

	"spear/internal/dag"
	"spear/internal/nn"
	"spear/internal/simenv"
)

// The policy's action distribution is a pure function of the encoded state,
// the legality mask and the weights, and a search asks for the same ones over
// and over: guided rollouts from sibling nodes share long prefixes, and the
// encoding forgets the clock and the finished tasks, so different episodes
// meet in the same input. probsMemo remembers those answers. It is keyed on
// the integer episode state the encoding is computed from (packState), so a
// hit encodes nothing.

const (
	// memoWays is the associativity: an entry lives in one of the memoWays
	// slots of the set its hash selects, the least recently used one making
	// room when all are taken.
	memoWays = 4
	// memoHashMul is the 64-bit golden-ratio multiplier of hashKey's mixing.
	memoHashMul = 0x9E3779B97F4A7C15
)

// memoTrialCalls is how many evaluations a context's memo sits out at a single
// set before it may grow. A context built for one decision (Agent.Choose) or
// one episode (a baseline PolicyScheduler) never meets a state twice and would only pay for
// storage it never reads back — growing from the first miss cost a 100-task
// greedy episode a third of its time — while a search asks that many
// questions in its first few rollouts.
const memoTrialCalls = 1024

// memoMaxSets caps a memo at memoMaxSets*memoWays = 16384 entries, ≈ 3.6 MB at
// the paper's features and jobs (a 10-word key of 8-bit lanes and 16
// outputs: 28 words, 224 bytes, an entry with its head; ≈ 10 MB on a job
// whose key takes 64-bit lanes, 58 words). On three 100-task jobs that
// answers 87–93 % of the evaluations from the memo where an unbounded one
// answers 88–94 % (8 k entries: 82–92 %, 4 k: 72–86 %).
// It is a variable only so that tests can shrink the memo (to another power
// of two) to force evictions, or set 0 to take it out of the path.
var memoMaxSets = 4096

// probsMemo maps a packed (episode state, mask) key to the distribution the
// network computed for it. It is exact, not probabilistic: a hit is declared
// only after the stored key matched word for word, and the encoding is a
// function of the key once the job and capacity are fixed, so the answer
// returned is the network's answer for that very argument. It answers for
// one network generation, job graph and capacity at a time (useJob), and
// forgets everything when one of them changes. The job and capacity also fix
// the lane the key is packed at, and with it keyLen. Storage starts empty,
// becomes one set on the first insert and, once its owner allows growth,
// doubles as distinct keys arrive, up to maxSets.
type probsMemo struct {
	lane, keyLen, width int
	// tagWords is 1 in a memo whose entries carry a tag word after the
	// distribution (a REINFORCE sampler's: the id of the evaluation's record),
	// else 0.
	tagWords int
	maxSets  int

	// heads holds two words per entry, sets*memoWays entries in set order:
	// the tick of the entry's last use (0 marks it empty) and hashKey's hash
	// of its key. A set's heads share one cache line, so finding the way is
	// one memory access however large the memo. bodies holds, per entry, the
	// key followed by the distribution as float bits and the tag, if any.
	heads  []uint64
	bodies []uint64
	sets   int // zero or a power of two
	tick   uint64
	live   int // occupied entries

	// gen, graph and capacity are the network generation, the job and the
	// cluster's total capacity the entries were computed under.
	gen       uint64
	graph     *dag.Graph
	capacity  []int64
	evictions int64
}

// Offsets into an entry's head.
const (
	headUsed  = 0
	headHash  = 1
	headWords = 2
)

func newProbsMemo(keyLen, width, maxSets int) probsMemo {
	return probsMemo{keyLen: keyLen, width: width, maxSets: maxSets}
}

// head and body return the two parts of entry i.
func (m *probsMemo) head(i int) []uint64 { return m.heads[i*headWords : (i+1)*headWords] }

func (m *probsMemo) body(i int) []uint64 {
	n := m.bodyWords()
	return m.bodies[i*n : (i+1)*n]
}

// bodyWords is the length of an entry's body: key, distribution, tag if any.
func (m *probsMemo) bodyWords() int { return m.keyLen + m.width + m.tagWords }

// stateWords returns the length of the key packState builds at lane bits a
// value.
func (f Features) stateWords(lane int) int {
	return f.Dims*simenv.PackedWords(f.Horizon, lane) + simenv.PackedWords(f.Window+2, lane) + (f.OutputSize()+63)/64
}

// keyLane returns the narrowest lane, 8, 16, 32 or 64 bits, that holds every
// value of e's key: a dimension's total capacity bounds its occupancy, and
// the number of tasks bounds a visible id plus one, Backlog and NumRunning.
func keyLane(e *simenv.Env) int {
	g := e.Graph()
	most := uint64(g.NumTasks())
	for d := 0; d < g.Dims(); d++ {
		most = max(most, uint64(e.CapacityDim(d)))
	}
	lane := 8
	for lane < 64 && most>>lane != 0 {
		lane *= 2
	}
	return lane
}

// packState packs into key the integer episode state Encode reads, beside
// the job and the capacity, and the mask of the legal actions, and returns
// hashKey's hash of it. Every value but the mask bits takes one lane of lane
// bits, as Env.OccupancyInto packs the occupancy, and must fit it (keyLane);
// key is stateWords(lane) words long. The words are, in order:
//
//   - the occupancy of the next Horizon slots, summed over machines, as
//     Env.OccupancyInto packs it (PackedWords(Horizon, lane) words a
//     dimension, a dimension the cluster lacks all zero);
//   - the visible task ids plus one in slot order, 0 past the last (Window
//     lanes), then Backlog and NumRunning;
//   - the mask bits of the encodable legal actions, as Mask sets them.
//
// Encode is a pure function of these values, the graph, the capacity and f,
// so two states with equal keys under one job and capacity have bit-equal
// encodings (FuzzKeyDeterminesEncoding).
func (f Features) packState(e *simenv.Env, legal []simenv.Action, key []uint64, lane int) uint64 {
	rowWords := simenv.PackedWords(f.Horizon, lane)
	occ := f.Dims * rowWords
	e.OccupancyInto(f.Horizon, f.Dims, lane, key[:occ])
	clear(key[min(f.Dims, e.Graph().Dims())*rowWords : occ])
	counts := key[occ : occ+simenv.PackedWords(f.Window+2, lane)]
	clear(counts)
	s := uint(bits.TrailingZeros(uint(lane)))
	for slot := range min(f.Window, e.NumVisible()) {
		setLane(counts, uint(slot), s, uint64(e.VisibleTask(slot))+1)
	}
	setLane(counts, uint(f.Window), s, uint64(e.Backlog()))
	setLane(counts, uint(f.Window+1), s, uint64(e.NumRunning()))
	mask := key[occ+len(counts):]
	clear(mask)
	for _, a := range legal {
		if f.encodable(a) {
			i := uint(f.IndexFor(a))
			mask[i/64] |= 1 << (i % 64)
		}
	}
	return hashKey(key)
}

// setLane ors v into lane i of words, whose lanes are 1<<s bits wide.
func setLane(words []uint64, i, s uint, v uint64) {
	perWord := 6 - s // 1<<perWord lanes share a word
	words[i>>perWord] |= v << (i & (1<<perWord - 1) << s)
}

// hashKey returns the hash a key is filed under. Four lanes each fold every
// fourth word (the last len%4 words go to the first), so their
// multiplications overlap instead of waiting on one another; a final mix
// folds the lanes' high bits into the low ones that pick the set.
func hashKey(key []uint64) uint64 {
	var l0, l1, l2, l3 uint64
	i := 0
	for ; i+4 <= len(key); i += 4 {
		l0 = (l0 ^ key[i]) * memoHashMul
		l1 = (l1 ^ key[i+1]) * memoHashMul
		l2 = (l2 ^ key[i+2]) * memoHashMul
		l3 = (l3 ^ key[i+3]) * memoHashMul
	}
	for ; i < len(key); i++ {
		l0 = (l0 ^ key[i]) * memoHashMul
	}
	h := uint64(len(key))
	for _, l := range [...]uint64{l0, l1, l2, l3} {
		h = (h ^ l ^ l>>32) * memoHashMul
		h ^= h >> 29
	}
	return h
}

// reset forgets every entry, keeping the storage, and files what follows
// under network generation gen.
func (m *probsMemo) reset(gen uint64) {
	for i := range m.heads {
		m.heads[i] = 0
	}
	m.live, m.gen = 0, gen
}

// useJob resets the memo unless it already answers for e's job and capacity,
// and files what follows under them. Beside the weights they are all
// Encode reads that the key does not hold. They also pick the lane f's key
// is packed at; a change of lane resizes the entries, keeping their storage
// when it is large enough.
func (m *probsMemo) useJob(e *simenv.Env, f Features) {
	g := e.Graph()
	same := g == m.graph && len(m.capacity) == g.Dims()
	for d := 0; same && d < g.Dims(); d++ {
		same = m.capacity[d] == e.CapacityDim(d)
	}
	if same {
		return
	}
	m.reset(m.gen)
	m.graph, m.capacity = g, m.capacity[:0]
	for d := 0; d < g.Dims(); d++ {
		m.capacity = append(m.capacity, e.CapacityDim(d))
	}
	if lane := keyLane(e); lane != m.lane {
		m.lane, m.keyLen = lane, f.stateWords(lane)
		if n := m.sets * memoWays * m.bodyWords(); n <= cap(m.bodies) {
			m.bodies = m.bodies[:n]
		} else {
			m.bodies = make([]uint64, n)
		}
	}
}

// lookup copies the distribution stored for key, whose hash is h, into out and
// reports whether there was one, along with its tag in a memo that keeps tags.
func (m *probsMemo) lookup(h uint64, key []uint64, out []float64) (tag int64, ok bool) {
	if m.sets == 0 {
		return 0, false
	}
	base := int(h&uint64(m.sets-1)) * memoWays
	for i := base; i < base+memoWays; i++ {
		hd := m.head(i)
		if hd[headUsed] == 0 || hd[headHash] != h {
			continue
		}
		b := m.body(i)
		if slices.Equal(b[:m.keyLen], key) {
			m.tick++
			hd[headUsed] = m.tick
			b = b[m.keyLen:]
			for j := range out {
				out[j] = math.Float64frombits(b[j])
			}
			if m.tagWords != 0 {
				tag = int64(b[m.width])
			}
			return tag, true
		}
	}
	return 0, false
}

// insert stores probs (and tag, in a memo that keeps tags) under key, which
// lookup has just missed. A full set makes room by growing the memo if it may
// grow, is under its cap and is at least half full (below that the set is
// merely unlucky), else by dropping its least recently used entry.
func (m *probsMemo) insert(h uint64, key []uint64, probs []float64, tag int64, mayGrow bool) {
	if m.maxSets == 0 {
		return
	}
	if m.sets == 0 {
		m.grow()
	}
	i := m.victim(h)
	if m.head(i)[headUsed] != 0 && mayGrow && m.sets < m.maxSets && 2*m.live >= m.sets*memoWays {
		m.grow()
		i = m.victim(h)
	}
	hd, b := m.head(i), m.body(i)
	if hd[headUsed] != 0 {
		m.evictions++
	} else {
		m.live++
	}
	m.tick++
	hd[headUsed], hd[headHash] = m.tick, h
	copy(b, key)
	for j, p := range probs {
		b[m.keyLen+j] = math.Float64bits(p)
	}
	if m.tagWords != 0 {
		b[m.keyLen+m.width] = uint64(tag)
	}
}

// victim returns the entry a key with hash h is written to: an empty one of
// its set if there is one, else the set's least recently used.
func (m *probsMemo) victim(h uint64) int {
	base := int(h&uint64(m.sets-1)) * memoWays
	best := base
	for i := base + 1; i < base+memoWays; i++ {
		if m.head(i)[headUsed] < m.head(best)[headUsed] {
			best = i
		}
	}
	return best
}

// grow doubles the number of sets (from none to one) and moves every entry to
// the set its hash now selects. A set's entries split over two new sets, so
// none is dropped.
func (m *probsMemo) grow() {
	old := *m
	m.sets = max(1, 2*old.sets)
	m.heads = make([]uint64, m.sets*memoWays*headWords)
	m.bodies = make([]uint64, m.sets*memoWays*m.bodyWords())
	for o := 0; o < old.sets*memoWays; o++ {
		if hd := old.head(o); hd[headUsed] != 0 {
			i := m.victim(hd[headHash])
			copy(m.head(i), hd)
			copy(m.body(i), old.body(o))
		}
	}
}

// recordSlab keeps what a REINFORCE sampler's network evaluations computed, so
// that backprop does not have to evaluate the same states again: per record
// the row state nn.SaveRow writes (encoded input and hidden activations)
// followed by the masked distribution. Records are handed out in order from
// fixed-size chunks, so one never moves while later ones arrive, and reset
// keeps the chunks: a warm slab hands out records without allocating.
type recordSlab struct {
	state, width int // values of row state and of distribution per record
	chunks       [][]float64
	n            int // records handed out since the last reset
}

// slabChunkRecords is the number of records per chunk, ≈ 1 MB of them at the
// paper's 147-256-32-32-16 network.
const slabChunkRecords = 256

// reset forgets every record, keeping the storage.
func (s *recordSlab) reset() { s.n = 0 }

// row returns record id: its row state, then its distribution.
func (s *recordSlab) row(id int) []float64 {
	n := s.state + s.width
	return s.chunks[id/slabChunkRecords][id%slabChunkRecords*n:][:n]
}

// save files the activations of row 0 of scratch's last forward pass and the
// distribution probs computed from it as the next record, and returns its id.
func (s *recordSlab) save(net *nn.Network, scratch *nn.Scratch, probs []float64) int {
	id := s.n
	if id == len(s.chunks)*slabChunkRecords {
		s.addChunk()
	}
	s.n++
	rec := s.row(id)
	net.SaveRow(scratch, 0, rec[:s.state])
	copy(rec[s.state:], probs)
	return id
}

func (s *recordSlab) addChunk() {
	s.chunks = append(s.chunks, make([]float64, slabChunkRecords*(s.state+s.width)))
}

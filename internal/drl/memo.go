package drl

import (
	"math"
	"slices"

	"spear/internal/nn"
)

// The policy's action distribution is a pure function of the encoded state,
// the legality mask and the weights, and a search asks for the same ones over
// and over: guided rollouts from sibling nodes share long prefixes, and the
// encoding forgets the clock and the finished tasks, so different episodes
// meet in the same input. probsMemo remembers those answers.

const (
	// memoWays is the associativity: an entry lives in one of the memoWays
	// slots of the set its hash selects, the least recently used one making
	// room when all are taken.
	memoWays = 4
	// memoHashMul is the 64-bit golden-ratio multiplier of packKey's mixing.
	memoHashMul = 0x9E3779B97F4A7C15
)

// memoTrialCalls is how many evaluations a context's memo sits out at a single
// set before it may grow. A context built for one decision (Agent.Choose) or
// one episode (a baseline PolicyScheduler) never meets a state twice and would only pay for
// storage it never reads back — growing from the first miss cost a 100-task
// greedy episode a third of its time — while a search asks that many
// questions in its first few rollouts.
const memoTrialCalls = 1024

// memoMaxSets caps a memo at memoMaxSets*memoWays = 16384 entries, ≈ 21 MB at
// the paper's 147 inputs and 16 outputs. On three 100-task jobs that answers
// 87–93 % of the evaluations from the memo where an unbounded one answers
// 88–94 % (8 k entries: 82–92 %, 4 k: 72–86 %). It is a variable only so that
// tests can shrink the memo (to another power of two) to force evictions, or
// set 0 to take it out of the path.
var memoMaxSets = 4096

// probsMemo maps a packed (encoded state, mask) key to the distribution the
// network computed for it. It is exact, not probabilistic: a hit is declared
// only after the stored key matched word for word, so the answer returned is
// the network's answer for that very argument. Storage starts empty, becomes
// one set on the first insert and, once its owner allows growth, doubles as
// distinct keys arrive, up to maxSets.
type probsMemo struct {
	keyLen, width int
	// tagWords is 1 in a memo whose entries carry a tag word after the
	// distribution (a REINFORCE sampler's: the id of the evaluation's record),
	// else 0.
	tagWords int
	maxSets  int

	// heads holds two words per entry, sets*memoWays entries in set order:
	// the tick of the entry's last use (0 marks it empty) and packKey's hash
	// of its key. A set's heads share one cache line, so finding the way is
	// one memory access however large the memo. bodies holds, per entry, the
	// key followed by the distribution as float bits and the tag, if any.
	heads  []uint64
	bodies []uint64
	sets   int // zero or a power of two
	tick   uint64
	live   int // occupied entries

	// gen is the network generation the entries were computed under.
	gen       uint64
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

// packKey packs the encoded state (as float bits, so that 0 and -0 or two NaNs
// are told apart exactly as the network tells them apart) and the mask bits
// into key, and returns a hash of it. Zero words only advance the position, so
// hashing costs what the state's non-zeros cost.
func packKey(x []float64, mask []bool, key []uint64) uint64 {
	h := uint64(len(x))
	for i, v := range x {
		w := math.Float64bits(v)
		key[i] = w
		if w != 0 {
			h = mixWord(h, i, w)
		}
	}
	tail := key[len(x):]
	for i := range tail {
		tail[i] = 0
	}
	for i, legal := range mask {
		if legal {
			tail[i/64] |= 1 << (i % 64)
		}
	}
	for i, w := range tail {
		h = mixWord(h, len(x)+i, w)
	}
	return h
}

// mixWord folds the key word w at position pos into the running hash h.
func mixWord(h uint64, pos int, w uint64) uint64 {
	h = (h ^ w ^ uint64(pos+1)*memoHashMul) * memoHashMul
	return h ^ h>>32
}

// keyWords returns the length of the key packKey builds for a network with
// the given input and output sizes.
func keyWords(in, out int) int { return in + (out+63)/64 }

// reset forgets every entry, keeping the storage, and files what follows
// under network generation gen.
func (m *probsMemo) reset(gen uint64) {
	for i := range m.heads {
		m.heads[i] = 0
	}
	m.live, m.gen = 0, gen
}

// lookup copies the distribution stored for key, whose hash is h, into out and
// reports whether there was one, along with its tag in a memo that keeps tags.
func (m *probsMemo) lookup(h uint64, key []uint64, out []float64) (tag uint64, ok bool) {
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
				tag = b[m.width]
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
func (m *probsMemo) insert(h uint64, key []uint64, probs []float64, tag uint64, mayGrow bool) {
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
		b[m.keyLen+m.width] = tag
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

// Package workload generates the paper's simulated workloads (§4): heat
// distributions over database objects (SH, CSH, cyclic), associative and
// navigational queries, Poisson and Bursty query arrival processes, the
// per-access update probability, and the disconnection schedules of
// Experiment #6.
package workload

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/oodb"
	"repro/internal/rng"
)

// HotFraction and HotAccessProb encode the 80/20 rule of the skewed heat
// pattern: 20% of the objects absorb 80% of the accesses.
const (
	HotFraction   = 0.20
	HotAccessProb = 0.80
)

// HeatModel selects which objects a query touches. Implementations are
// deterministic functions of (seed, query index), so replays are exact.
type HeatModel interface {
	// PickInto returns the n distinct object ids accessed by query
	// queryIndex, appended into buf[:0] (buf may be nil).
	PickInto(r *rng.Stream, n int, queryIndex uint64, buf []oodb.OID) []oodb.OID
}

// skewedHeat implements the SH pattern: a fixed random 20% hot set receives
// 80% of accesses. Each client instantiates its own model (with its own
// seed) so hot sets differ across clients, as §4 requires. The cold set,
// the hot set's complement, is not stored: its k-th object in ascending
// order is found from the hot set's ascending copy.
type skewedHeat struct {
	hot    []oodb.OID // hot set, selection order
	ranked []oodb.OID // hot set, ascending
	cold   int        // objects outside the hot set
}

// NewSkewedHeat builds an SH model over numObjects objects using seed to
// pick the hot set.
func NewSkewedHeat(numObjects int, seed uint64) HeatModel {
	return newSkewed(numObjects, rng.Derive(seed, 0x5ea7))
}

func newSkewed(numObjects int, r *rng.Stream) *skewedHeat {
	if numObjects < 2 {
		panic("workload: heat model needs at least 2 objects")
	}
	hotCount := int(float64(numObjects)*HotFraction + 0.5)
	if hotCount < 1 {
		hotCount = 1
	}
	// Every client keeps its own model, so the hot set is sized exactly
	// rather than grown by append.
	h := &skewedHeat{hot: make([]oodb.OID, 0, hotCount), cold: numObjects - hotCount}
	for _, idx := range r.Sample(numObjects, hotCount) {
		h.hot = append(h.hot, oodb.OID(idx))
	}
	h.ranked = slices.Clone(h.hot)
	slices.Sort(h.ranked)
	return h
}

// coldAt returns the k-th cold object in ascending order. Below ranked[j]
// lie ranked[j]-j cold objects, so the answer is k plus the number of hot
// objects j with ranked[j]-j <= k.
func (h *skewedHeat) coldAt(k int) oodb.OID {
	j := sort.Search(len(h.ranked), func(j int) bool { return int(h.ranked[j])-j > k })
	return oodb.OID(k + j)
}

func (h *skewedHeat) PickInto(r *rng.Stream, n int, _ uint64, buf []oodb.OID) []oodb.OID {
	if n > len(h.hot)+h.cold {
		panic(fmt.Sprintf("workload: query selectivity %d exceeds population %d",
			n, len(h.hot)+h.cold))
	}
	out := buf[:0]
	for len(out) < n {
		oid := h.pickOne(r)
		if !containsOID(out, oid) {
			out = append(out, oid)
		}
	}
	return out
}

// pickOne performs a single skewed draw (one Bool, one Intn): from the hot
// set with probability HotAccessProb, else from the cold set, uniform
// within the set, and from the hot set whenever the cold one is empty.
// Dedup of a query's draws is a linear scan over the (small) result, which
// consumes no randomness, so the draw sequence matches the original
// map-based implementation exactly.
func (h *skewedHeat) pickOne(r *rng.Stream) oodb.OID {
	if (r.Bool(HotAccessProb) && len(h.hot) > 0) || h.cold == 0 {
		return h.hot[r.Intn(len(h.hot))]
	}
	return h.coldAt(r.Intn(h.cold))
}

func containsOID(s []oodb.OID, oid oodb.OID) bool {
	for _, v := range s {
		if v == oid {
			return true
		}
	}
	return false
}

// changingSkewedHeat implements the CSH pattern: the 20% hot set is
// re-selected every ChangeEvery queries. Hot sets per epoch are derived
// deterministically from the seed, so the whole trajectory replays.
type changingSkewedHeat struct {
	numObjects  int
	seed        uint64
	changeEvery uint64
	epoch       uint64
	cur         *skewedHeat
}

// NewChangingSkewedHeat builds a CSH model whose hot set is reshuffled
// every changeEvery queries (the paper's A_C parameter: 300, 500, 700).
func NewChangingSkewedHeat(numObjects int, seed uint64, changeEvery int) HeatModel {
	if changeEvery < 1 {
		panic("workload: CSH change rate must be >= 1 query")
	}
	m := &changingSkewedHeat{
		numObjects:  numObjects,
		seed:        seed,
		changeEvery: uint64(changeEvery),
	}
	m.cur = m.buildEpoch(0)
	return m
}

func (m *changingSkewedHeat) buildEpoch(epoch uint64) *skewedHeat {
	return newSkewed(m.numObjects, rng.Derive(m.seed, 0xc5b0000+epoch))
}

func (m *changingSkewedHeat) PickInto(r *rng.Stream, n int, queryIndex uint64, buf []oodb.OID) []oodb.OID {
	if epoch := queryIndex / m.changeEvery; epoch != m.epoch {
		m.epoch = epoch
		m.cur = m.buildEpoch(epoch)
	}
	return m.cur.PickInto(r, n, queryIndex, buf)
}

// CyclicConfig parameterizes the cyclic access pattern of the LRU-k
// evaluation ([14] in the paper): a *loop pool* of objects is revisited at
// a fixed period — each query reads a window of the loop, the window
// lingers for Burst consecutive queries (a burst of correlated references)
// and then advances — while the rest of each query draws one-touch noise
// from the remaining objects. Items therefore recur after a predictable
// interval longer than a recency horizon polluted by the noise: LRU keeps
// the useless noise and drops the loop; LRU-k and the duration-score
// policies discriminate by reference history (Figure 6).
type CyclicConfig struct {
	// NumObjects is the database population.
	NumObjects int
	// LoopObjects is the loop pool size (default NumObjects/4).
	LoopObjects int
	// LoopPerQuery is how many loop objects each query reads (default 1/4
	// of the query selectivity, set by the caller; must be >= 1).
	LoopPerQuery int
	// Burst is how many consecutive queries see the same loop window
	// (default 3).
	Burst int
	// Seed shuffles which objects form the loop pool.
	Seed uint64
}

type cyclicHeat struct {
	loop         []oodb.OID
	noise        []oodb.OID
	loopPerQuery int
	burst        uint64
	// Scratch for SampleInto; a heat model belongs to one client, so the
	// buffers are never used concurrently.
	sampleIdx []int
	sampleOut []int
}

// NewCyclicHeat builds the cyclic pattern.
func NewCyclicHeat(cfg CyclicConfig) HeatModel {
	if cfg.NumObjects < 8 {
		panic("workload: cyclic heat needs at least 8 objects")
	}
	if cfg.LoopObjects == 0 {
		cfg.LoopObjects = cfg.NumObjects / 4
	}
	if cfg.Burst == 0 {
		cfg.Burst = 3
	}
	if cfg.LoopPerQuery < 1 {
		panic("workload: LoopPerQuery must be >= 1")
	}
	if cfg.LoopObjects < cfg.LoopPerQuery || cfg.LoopObjects >= cfg.NumObjects {
		panic("workload: LoopObjects out of range")
	}
	r := rng.Derive(cfg.Seed, 0xcc11c)
	perm := r.Perm(cfg.NumObjects)
	h := &cyclicHeat{
		loopPerQuery: cfg.LoopPerQuery,
		burst:        uint64(cfg.Burst),
	}
	for i, idx := range perm {
		if i < cfg.LoopObjects {
			h.loop = append(h.loop, oodb.OID(idx))
		} else {
			h.noise = append(h.noise, oodb.OID(idx))
		}
	}
	h.sampleIdx = make([]int, len(h.noise))
	return h
}

func (m *cyclicHeat) PickInto(r *rng.Stream, n int, queryIndex uint64, buf []oodb.OID) []oodb.OID {
	out := buf[:0]
	// Loop window: advances every Burst queries, wraps around the pool.
	k := m.loopPerQuery
	if k > n {
		k = n
	}
	start := int(queryIndex/m.burst) * m.loopPerQuery % len(m.loop)
	for i := 0; i < k; i++ {
		out = append(out, m.loop[(start+i)%len(m.loop)])
	}
	// Noise: distinct uniform draws from the non-loop pool.
	rest := n - len(out)
	if rest > len(m.noise) {
		rest = len(m.noise)
	}
	m.sampleOut = r.SampleInto(len(m.noise), rest, m.sampleIdx, m.sampleOut)
	for _, j := range m.sampleOut {
		out = append(out, m.noise[j])
	}
	return out
}

// sharedSkewedHeat models common interest across clients (§1 of the paper:
// "items of interest to most mobile clients should be broadcast"): with
// probability shareProb a pick comes from a *shared pool* that is
// identical for every client; otherwise from the client's private SH
// model over the remaining objects.
type sharedSkewedHeat struct {
	shared    []oodb.OID
	shareProb float64
	private   *skewedHeat
}

// SharedPool returns the common pool derived from (numObjects, seed,
// poolSize): the same set for every client with the same arguments.
func SharedPool(numObjects int, seed uint64, poolSize int) []oodb.OID {
	if poolSize < 1 || poolSize >= numObjects {
		panic("workload: shared pool size out of range")
	}
	r := rng.Derive(seed, 0x58a7ed)
	idx := r.Sample(numObjects, poolSize)
	out := make([]oodb.OID, poolSize)
	for i, j := range idx {
		out[i] = oodb.OID(j)
	}
	return out
}

// NewSharedSkewedHeat builds a heat model where all clients share a common
// pool (drawn with probability shareProb, uniform within the pool) and
// otherwise follow a private 80/20 pattern. seed selects the shared pool;
// clientSeed differentiates the private hot sets.
func NewSharedSkewedHeat(numObjects int, seed, clientSeed uint64,
	poolSize int, shareProb float64) HeatModel {
	if shareProb < 0 || shareProb > 1 {
		panic("workload: shareProb out of [0,1]")
	}
	return &sharedSkewedHeat{
		shared:    SharedPool(numObjects, seed, poolSize),
		shareProb: shareProb,
		private:   newSkewed(numObjects, rng.Derive(clientSeed, 0x5ea7)),
	}
}

func (h *sharedSkewedHeat) PickInto(r *rng.Stream, n int, _ uint64, buf []oodb.OID) []oodb.OID {
	out := buf[:0]
	for len(out) < n {
		var oid oodb.OID
		if r.Bool(h.shareProb) {
			oid = h.shared[r.Intn(len(h.shared))]
		} else {
			oid = h.private.pickOne(r)
		}
		if !containsOID(out, oid) {
			out = append(out, oid)
		}
	}
	return out
}

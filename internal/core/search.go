package core

import (
	"math"
	"sync"

	"finemoe/internal/moe"
	"finemoe/internal/tensor"
)

// SearchResult is a searched expert map with its similarity score — the
// score drives the dynamic selection threshold δ (§4.3).
type SearchResult struct {
	Map   *ExpertMap
	Score float64
}

// Searcher implements the Expert Map Searcher (§4.2): semantic-based search
// guides prefetching for layers [1, d] where no trajectory has been observed
// yet, and trajectory-based prefix search guides layers [d+1, L].
//
// Searches run against the store's centroid-clustered index (index.go).
// The default probe-all mode returns byte-identical results to the seed's
// brute-force linear scan; SetNProbe opts into approximate search that
// scans only the nprobe most similar clusters — the hit-rate/latency
// trade-off the searchfig experiment quantifies.
type Searcher struct {
	store *Store
	cfg   moe.Config
	// prefilter bounds trajectory-search candidates to the top-N maps by
	// semantic similarity (0 = search the whole store, the paper's exact
	// formulation; the prefilter is a performance optimization recorded
	// in DESIGN.md §6).
	prefilter int
	// nprobe bounds the semantic index probe (<= 0 = probe every cluster:
	// exact mode).
	nprobe int
}

// NewSearcher builds a searcher over the store. prefilter <= 0 searches the
// full store for trajectories.
func NewSearcher(store *Store, prefilter int) *Searcher {
	return &Searcher{store: store, cfg: store.Config(), prefilter: prefilter}
}

// SetNProbe bounds the clustered index probe to the n most query-similar
// buckets per search. n <= 0 restores exact (probe-all) mode.
func (s *Searcher) SetNProbe(n int) { s.nprobe = n }

// NProbe returns the configured probe bound (0 = exact).
func (s *Searcher) NProbe() int {
	if s.nprobe <= 0 {
		return 0
	}
	return s.nprobe
}

// Query is a prepared search query: the semantic embedding converted to
// the store's float32 precision exactly once, with its squared norm
// cached. One Query serves both the semantic search and the trajectory
// cursor of an iteration (the seed converted twice per iteration).
// Queries come from an internal pool — Release recycles one after its
// last use.
type Query struct {
	// Sem is the original float64 embedding (probe ordering reads it).
	Sem  []float64
	semF []float32
	// sem64 is float64(semF[i]) — the float32-rounded embedding widened
	// back once, so the scan kernel skips one conversion per element per
	// candidate while reproducing CosineF32's float64 arithmetic exactly.
	sem64 []float64
	norm2 float64
}

var queryPool = sync.Pool{New: func() any { return new(Query) }}

// Prepare converts a semantic embedding into a pooled Query. The Query
// borrows sem (no copy); it is valid until Release.
//
//finemoe:hotpath
func (s *Searcher) Prepare(sem []float64) *Query {
	q := queryPool.Get().(*Query)
	if cap(q.semF) < len(sem) {
		q.semF = make([]float32, len(sem))
		q.sem64 = make([]float64, len(sem))
	}
	q.semF = q.semF[:len(sem)]
	q.sem64 = q.sem64[:len(sem)]
	for i, x := range sem {
		f := float32(x)
		q.semF[i] = f
		q.sem64[i] = float64(f)
	}
	q.Sem = sem
	q.norm2 = tensor.Norm2F32(q.semF)
	return q
}

// Release returns the query to the pool. The query must not be used after.
func (q *Query) Release() {
	if q == nil {
		return
	}
	q.Sem = nil
	queryPool.Put(q)
}

// SemanticSearch returns the stored map with the highest cosine similarity
// between semantic embeddings (Eq. 4), or ok=false on an empty store.
// It prepares a throwaway query; callers also starting a cursor should
// Prepare once and use SemanticSearchQ + NewCursorQ.
func (s *Searcher) SemanticSearch(sem []float64) (SearchResult, bool) {
	q := s.Prepare(sem)
	res, ok := s.SemanticSearchQ(q)
	q.Release()
	return res, ok
}

// SemanticSearchQ runs the semantic search for a prepared query through
// the store's clustered index.
//
//finemoe:hotpath
func (s *Searcher) SemanticSearchQ(q *Query) (SearchResult, bool) {
	return s.store.semSearch(q, s.nprobe)
}

// BruteForceSemanticSearch is the seed's linear scan over a full store
// snapshot, kept as the reference implementation: the parity tests pin
// exact-mode indexed search to its byte-identical result, and the search
// benchmarks report the indexed speedup against it.
func (s *Searcher) BruteForceSemanticSearch(sem []float64) (SearchResult, bool) {
	snap := s.store.Snapshot()
	if len(snap) == 0 {
		return SearchResult{}, false
	}
	semF := tensor.Float32s(sem)
	best, bestScore := -1, -2.0
	for i, m := range snap {
		if c := tensor.CosineF32(semF, m.Sem); c > bestScore {
			best, bestScore = i, c
		}
	}
	return SearchResult{Map: snap[best], Score: bestScore}, true
}

// Search-latency model constants. The seed charged semCosineCostMS per
// stored embedding float — a full three-accumulator cosine per candidate.
// The clustered index scans with cached norms and one fused dot per
// candidate, recalibrated to semScanCostMS (5× cheaper per float, below
// the 6.6–9.9× exact-vs-brute speedup measured in BENCH_layers.txt);
// centroid ranking still pays a full cosine per non-empty cluster.
const (
	searchBaseMS    = 0.05
	semCosineCostMS = 1.5e-6
	semScanCostMS   = 0.3e-6
	trajStepCostMS  = 1.5e-6
)

// SemanticLatencyMS models the wall-clock cost of one semantic search
// over the store, mirroring the implemented search phases: the cached-
// norm dot scan over the probed candidates — the full population in
// exact mode, ~population·nprobe/clusters when probing — plus, only when
// actually probing, the centroid-ranking pass (a full cosine per
// non-empty cluster; exact mode skips straight to the arena sweep and is
// charged nothing for centroids). The constants keep a 1K-map store at a
// fraction of a millisecond, matching the paper's negligible-overhead
// claim (§6.8), and the candidate count makes simulated TTFT reflect the
// index.
func (s *Searcher) SemanticLatencyMS() float64 {
	clusters, cands := s.store.probeStats(s.nprobe)
	dim := float64(s.cfg.SemDim)
	lat := searchBaseMS + semScanCostMS*float64(cands)*dim
	if s.nprobe > 0 && s.nprobe < clusters {
		lat += semCosineCostMS * float64(clusters) * dim
	}
	return lat
}

// TrajectoryLatencyMS models one trajectory-prefix search step over the
// cursor's candidate set: the semantic prefilter bound, further capped by
// the probed population in approximate mode.
func (s *Searcher) TrajectoryLatencyMS() float64 {
	_, cands := s.store.probeStats(s.nprobe)
	if s.prefilter > 0 && s.prefilter < cands {
		cands = s.prefilter
	}
	return searchBaseMS + trajStepCostMS*float64(cands)*float64(s.cfg.RoutedExperts)
}

// Cursor performs incremental trajectory-prefix search for one request
// iteration: each observed layer's gate distribution extends the prefix,
// and Best returns the most similar stored map under Eq. 5 over the
// observed prefix. Dot products and norms are maintained incrementally so
// each layer costs O(candidates × J). Cursors and their score buffers are
// pooled — Release one when its request completes.
type Cursor struct {
	cands    []*ExpertMap
	dots     []float64
	selfNorm float64
	layers   int
	j        int
	maxLayer int
	// ownsCands marks cands as pool-owned scratch (the prefiltered case);
	// false means cands aliases a shared store snapshot and must not be
	// recycled.
	ownsCands bool
	released  bool
	// scores is the pooled slotScore scratch the prefilter used, retained
	// for the next cursor.
	scores []slotScore
}

var cursorPool = sync.Pool{New: func() any { return new(Cursor) }}

// NewCursor starts a trajectory search for an iteration, preparing a
// throwaway query (see NewCursorQ). Returns nil if the store is empty.
func (s *Searcher) NewCursor(sem []float64) *Cursor {
	q := s.Prepare(sem)
	c := s.NewCursorQ(q)
	q.Release()
	return c
}

// NewCursorQ starts a trajectory search for a prepared query. The
// candidate set is the semantic top-N prefilter when configured (selected
// through the clustered index), otherwise the full store via a zero-copy
// snapshot. Returns nil if the store is empty.
//
//finemoe:hotpath
func (s *Searcher) NewCursorQ(q *Query) *Cursor {
	c := cursorPool.Get().(*Cursor)
	c.selfNorm, c.layers = 0, 0
	c.j, c.maxLayer = s.cfg.RoutedExperts, s.cfg.Layers
	c.released = false
	n := s.store.Len()
	if s.prefilter > 0 && s.prefilter < n {
		c.cands, c.scores = s.store.semTopN(q, s.nprobe, s.prefilter, c.cands[:0], c.scores)
		c.ownsCands = true
	} else {
		c.cands = s.store.Snapshot()
		c.ownsCands = false
	}
	if len(c.cands) == 0 {
		c.recycle()
		return nil
	}
	if cap(c.dots) < len(c.cands) {
		c.dots = make([]float64, len(c.cands))
	} else {
		c.dots = c.dots[:len(c.cands)]
		for i := range c.dots {
			c.dots[i] = 0
		}
	}
	return c
}

// Release recycles the cursor and its score buffers. Safe on nil; the
// cursor must not be used afterwards.
func (c *Cursor) Release() {
	if c == nil || c.released {
		return
	}
	c.recycle()
}

func (c *Cursor) recycle() {
	if !c.ownsCands {
		// cands aliases a shared snapshot — drop the reference instead of
		// recycling its backing array.
		c.cands = nil
	}
	c.released = true
	cursorPool.Put(c)
}

// Observe extends the prefix with the gate distribution of the next layer.
//
//finemoe:hotpath
func (c *Cursor) Observe(probs []float64) {
	if c == nil {
		return
	}
	if c.released {
		panic("core: Observe on a released cursor")
	}
	if c.layers >= c.maxLayer {
		panic("core: cursor observed more layers than the model has")
	}
	if len(probs) != c.j {
		panic("core: cursor observed wrong expert count")
	}
	base := c.layers * c.j
	// probs[:j] pins the loop bound to the row length the slice expression
	// below constructs, so the compiler drops the row[k] bounds checks in
	// the dot kernel (the length equality was asserted above).
	j := c.j
	probs = probs[:j]
	for i, m := range c.cands {
		row := m.Traj[base : base+j]
		var d float64
		for k, p := range probs {
			d += p * float64(row[k])
		}
		c.dots[i] += d
	}
	var n float64
	for _, p := range probs {
		n += p * p
	}
	c.selfNorm += n
	c.layers++
}

// Layers returns how many layers the cursor has observed.
func (c *Cursor) Layers() int {
	if c == nil {
		return 0
	}
	return c.layers
}

// Best returns the most similar stored map over the observed prefix
// (Eq. 5), or ok=false before any layer has been observed.
//
//finemoe:hotpath
func (c *Cursor) Best() (SearchResult, bool) {
	if c == nil || c.layers == 0 || c.selfNorm == 0 {
		return SearchResult{}, false
	}
	if c.released {
		panic("core: Best on a released cursor")
	}
	bestIdx, bestScore := -1, -2.0
	for i, m := range c.cands {
		pn := m.prefixNorm2[c.layers-1]
		if pn == 0 {
			continue
		}
		score := c.dots[i] / math.Sqrt(c.selfNorm*pn)
		if score > bestScore {
			bestIdx, bestScore = i, score
		}
	}
	if bestIdx < 0 {
		return SearchResult{}, false
	}
	return SearchResult{Map: c.cands[bestIdx], Score: tensor.Clip(bestScore, -1, 1)}, true
}

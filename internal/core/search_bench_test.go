package core

import (
	"fmt"
	"testing"

	"finemoe/internal/moe"
	"finemoe/internal/rng"
)

// benchStore builds the canonical search-benchmark population on the
// Mixtral-dimension semantic space: n synthetic maps (RandomExpertMap,
// fixed seed 77) in a store of capacity n — steady state at the fill
// boundary — plus the fixed unit query the benchmarks search for.
func benchStore(n int) (*Store, []float64) {
	cfg := moe.Mixtral8x7B()
	s := NewStore(cfg, n, cfg.OptimalPrefetchDistance)
	for i := 0; i < n; i++ {
		s.Add(RandomExpertMap(cfg, uint64(i), 77))
	}
	q := make([]float64, cfg.SemDim)
	rng.New(123).UnitVec(q)
	return s, q
}

// BenchmarkSemanticSearch measures exact-mode indexed semantic search —
// the per-iteration hot path — at several store sizes. Compare against
// BenchmarkSemanticSearchBrute for the indexed speedup (the acceptance
// target: ≥5× at 10K maps, ~0 allocs/op in steady state).
func BenchmarkSemanticSearch(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("store=%d", n), func(b *testing.B) {
			s, sem := benchStore(n)
			searcher := NewSearcher(s, 0)
			q := searcher.Prepare(sem)
			defer q.Release()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				searcher.SemanticSearchQ(q)
			}
		})
	}
}

// BenchmarkSemanticSearchApprox measures the opt-in approximate mode
// (nprobe=4 of ~√n clusters).
func BenchmarkSemanticSearchApprox(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("store=%d", n), func(b *testing.B) {
			s, sem := benchStore(n)
			searcher := NewSearcher(s, 0)
			searcher.SetNProbe(4)
			q := searcher.Prepare(sem)
			defer q.Release()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				searcher.SemanticSearchQ(q)
			}
		})
	}
}

// BenchmarkSemanticSearchBrute is the seed's linear scan (snapshot copy +
// full cosine per candidate), kept as the speedup baseline.
func BenchmarkSemanticSearchBrute(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("store=%d", n), func(b *testing.B) {
			s, sem := benchStore(n)
			searcher := NewSearcher(s, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				searcher.BruteForceSemanticSearch(sem)
			}
		})
	}
}

// BenchmarkCursorObserve measures one trajectory-prefix extension over the
// default 128-candidate prefilter.
func BenchmarkCursorObserve(b *testing.B) {
	s, sem := benchStore(1000)
	cfg := s.Config()
	searcher := NewSearcher(s, 128)
	probs := make([]float64, cfg.RoutedExperts)
	r := rng.New(5)
	for j := range probs {
		probs[j] = r.Float64()
	}
	cur := searcher.NewCursor(sem)
	used := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if used == cfg.Layers {
			b.StopTimer()
			cur.Release()
			cur = searcher.NewCursor(sem)
			used = 0
			b.StartTimer()
		}
		cur.Observe(probs)
		used++
	}
}

// BenchmarkNewCursor measures prefiltered cursor construction (indexed
// top-N selection) on a 1K store.
func BenchmarkNewCursor(b *testing.B) {
	s, sem := benchStore(1000)
	searcher := NewSearcher(s, 128)
	q := searcher.Prepare(sem)
	defer q.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		searcher.NewCursorQ(q).Release()
	}
}

// BenchmarkStoreAdd measures steady-state insertion at capacity: one
// redundancy-scored dedup eviction plus the incremental index update.
func BenchmarkStoreAdd(b *testing.B) {
	cfg := moe.Mixtral8x7B()
	n := 1000
	s := NewStore(cfg, n, cfg.OptimalPrefetchDistance)
	maps := make([]*ExpertMap, 2*n)
	for i := range maps {
		maps[i] = RandomExpertMap(cfg, uint64(i), 31)
	}
	for i := 0; i < n; i++ {
		s.Add(maps[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(maps[i%len(maps)])
	}
}

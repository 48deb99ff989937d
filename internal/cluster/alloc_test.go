package cluster

import (
	"runtime"
	"testing"

	"finemoe/internal/core"
	"finemoe/internal/memsim"
	"finemoe/internal/moe"
	"finemoe/internal/raceflag"
	"finemoe/internal/serve"
	"finemoe/internal/workload"
)

// allocBudget bounds the streaming loop's heap objects per request. It is
// deliberately loose against the measured rate (a few dozen allocations
// per request, dominated by result-row bookkeeping and policy state) — it
// exists to catch a regression that reintroduces per-request maps,
// closures, or trace materialization into the hot loop, not to pin an
// exact count.
const allocBudget = 100

// checkStreamAllocs runs src (n requests) through c from a forced GC and
// fails unless every request is served within allocBudget allocations
// per request.
func checkStreamAllocs(t *testing.T, c *Cluster, src workload.Source, n int) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res := c.RunStream(src)
	runtime.ReadMemStats(&after)

	if res.Served != n {
		t.Fatalf("served %d of %d requests", res.Served, n)
	}
	perReq := float64(after.Mallocs-before.Mallocs) / float64(n)
	t.Logf("steady-state allocations per request: %.1f", perReq)
	if perReq > allocBudget {
		t.Errorf("streaming loop allocates %.1f objects per request, budget %d", perReq, allocBudget)
	}
}

// TestRunStreamSteadyStateAllocs guards the streaming loop's per-request
// allocation budget on a short horizon.
func TestRunStreamSteadyStateAllocs(t *testing.T) {
	const n = 2000
	m := moe.NewModel(moe.Tiny(), 11)
	c := New(Options{
		Engines: testEngines(m, 4),
		Router:  NewLeastLoaded(),
	})
	src := workload.StreamOnline(streamDataset(31), moe.Tiny().SemDim,
		workload.OnlineOptions{Arrivals: workload.BurstyMMPP(60), N: n, Seed: 5})
	checkStreamAllocs(t, c, src, n)
}

// TestRunStreamLongHorizonAllocs drives 100k generator-backed requests
// through 8 cold-store Tiny FineMoE instances on the paper's GPU under
// bursty MMPP arrivals — perfbench's fleet-tiny-mmpp at a quarter of the
// fleet — and holds every request served within the same budget. The
// horizon crosses a 64Ki metrics.Column chunk, which the 2000-request
// guard never reaches.
func TestRunStreamLongHorizonAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-request horizon")
	}
	const n, instances = 100_000, 8
	m := moe.NewModel(moe.Tiny(), 42)
	cfg := m.Cfg
	engines := make([]*serve.Engine, instances)
	for i := range engines {
		engines[i] = serve.New(serve.Options{
			Model: m, GPU: memsim.RTX3090(), NumGPUs: 1,
			Policy: core.NewFineMoE(core.NewStore(cfg, 50, cfg.OptimalPrefetchDistance), core.Options{}),
		})
	}
	c := New(Options{Engines: engines, Router: NewLeastLoaded()})
	src := workload.StreamOnline(benchDataset(), cfg.SemDim, workload.OnlineOptions{
		Arrivals: workload.BurstyMMPP(8 * instances), N: n, Seed: 42,
	})
	checkStreamAllocs(t, c, src, n)
}

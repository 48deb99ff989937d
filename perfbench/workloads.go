package main

import (
	"fmt"

	"finemoe/internal/baselines"
	"finemoe/internal/cluster"
	"finemoe/internal/core"
	"finemoe/internal/faults"
	"finemoe/internal/memsim"
	"finemoe/internal/moe"
	"finemoe/internal/policy"
	"finemoe/internal/serve"
	"finemoe/internal/workload"
)

// modelSeed fixes the simulated model's weights. The model is the program
// under test, not an input, so it does not vary with --seed.
const modelSeed = 42

// benchWorkload is one named input set. build turns a seed into a fresh
// fleet; every repeat calls it again, because engines, policies and
// stores are single-run.
type benchWorkload struct {
	name string
	// why is the one-line rationale BENCHMARK.json repeats.
	why string
	// requests is the trace length; closed-loop follow-ups come on top.
	requests int
	// build makes a fresh fleet; wrap, when non-nil, is applied to every
	// policy before its engine is constructed.
	build func(seed uint64, requests int, wrap policyWrapper) *fleet
}

// policyWrapper decorates a policy; the traced run uses it to time hooks.
type policyWrapper func(policy.Policy) policy.Policy

func (w policyWrapper) apply(p policy.Policy) policy.Policy {
	if w == nil {
		return p
	}
	return w(p)
}

// fleet is everything one RunStream needs, built from a seed. The
// benchmark hands the program only opts (engines and policies) and src
// (the generated requests).
type fleet struct {
	model *moe.Model
	opts  cluster.Options
	src   workload.Source
}

func workloads() []benchWorkload {
	return []benchWorkload{
		{
			name:     "fleet-tiny-mmpp",
			why:      "32 cold-store FineMoE Tiny-MoE instances, bursty MMPP at 8 req/s each: event heap, generator and Store.Add dedup run hot",
			requests: 12000,
			build:    buildTinyMMPP,
		},
		{
			name:     "paper-mixtral-warm",
			why:      "the paper's setup, one Mixtral-8x7B on 6x RTX 3090 with a warm 1000-map store: semantic search and trajectory matching dominate",
			requests: 1000,
			build:    buildMixtralWarm,
		},
		{
			name:     "fleet-sessions-faults",
			why:      "Mixtral-Offloading sessions on an autoscaled three-tier fleet with a crash and a brownout: control plane and memsim run hot, core idles",
			requests: 2000,
			build:    buildSessionsFaults,
		},
	}
}

func lookupWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q", name)
}

// tinyDataset is the Tiny-MoE prompt population BENCH_cluster.json's
// clusterbench uses: eight topics, a handful of tokens per request.
func tinyDataset() workload.Dataset {
	return workload.Dataset{
		Name: "clusterbench", Topics: 8, TopicSpread: 0.05,
		MeanInput: 5, MeanOutput: 4, LenSigma: 0.3, Seed: 11,
	}
}

// tinyInstances is the fleet size of the ROADMAP's end-to-end
// configuration.
const tinyInstances = 32

// buildTinyMMPP is the serial stream row of BENCH_cluster.json: Tiny-MoE
// FineMoE instances with cold 50-map stores behind least-loaded routing,
// fed bursty MMPP arrivals at 8 req/s per instance.
func buildTinyMMPP(seed uint64, requests int, wrap policyWrapper) *fleet {
	m := moe.NewModel(moe.Tiny(), modelSeed)
	cfg := m.Cfg
	engines := make([]*serve.Engine, tinyInstances)
	for i := range engines {
		pol := core.NewFineMoE(core.NewStore(cfg, 50, cfg.OptimalPrefetchDistance), core.Options{})
		engines[i] = serve.New(serve.Options{Model: m, GPU: memsim.RTX3090(), NumGPUs: 1, Policy: wrap.apply(pol)})
	}
	return &fleet{
		model: m,
		opts:  cluster.Options{Engines: engines, Router: cluster.NewLeastLoaded()},
		src: workload.StreamOnline(tinyDataset(), cfg.SemDim, workload.OnlineOptions{
			Arrivals: workload.BurstyMMPP(8 * tinyInstances), N: requests, Seed: seed,
		}),
	}
}

// Paper-setup constants (§6.1–6.3): a 1000-map store from a 96-prompt
// offline LMSYS-Chat-1M split, a 0.30 expert-cache budget, and Azure-style
// Poisson arrivals slow enough that one instance never builds a backlog.
const (
	mixtralStorePrompts  = 96
	mixtralStoreCapacity = 1000
	mixtralCacheFrac     = 0.30
	mixtralRatePerSec    = 0.1
	// mixtralMaxOutput clamps generation lengths the way
	// experiments.Scale.MaxOutput does, so a run of 1000 requests fits
	// the benchmark's time budget.
	mixtralMaxOutput = 8
)

// buildMixtralWarm is the paper's own serving setup: one Mixtral-8x7B
// instance on 6x RTX 3090 running FineMoE over a store warmed from the
// offline split. Set-up traces the split and builds the store.
func buildMixtralWarm(seed uint64, requests int, wrap policyWrapper) *fleet {
	cfg := moe.Mixtral8x7B()
	m := moe.NewModel(cfg, modelSeed)
	ds := workload.LMSYSChat1M()
	d := cfg.OptimalPrefetchDistance
	split := ds.Sample(workload.Options{Dim: cfg.SemDim, N: mixtralStorePrompts, Seed: seed, FixedLengths: true})
	traces := make(map[uint64][]*moe.Iteration, len(split))
	for _, q := range split {
		traces[q.ID] = m.Trace(q.PromptSpec)
	}
	store := core.BuildStore(cfg, mixtralStoreCapacity, d, traces)
	eng := serve.New(serve.Options{
		Model: m, GPU: memsim.RTX3090(), NumGPUs: 6,
		CacheBytes: int64(float64(cfg.TotalExpertBytes()) * mixtralCacheFrac),
		Policy:     wrap.apply(core.NewFineMoE(store, core.Options{PrefetchDistance: d})),
	})
	return &fleet{
		model: m,
		opts:  cluster.Options{Engines: []*serve.Engine{eng}},
		src: &clampSource{
			src: workload.StreamAzureTrace(ds, cfg.SemDim, workload.TraceConfig{
				RatePerSec: mixtralRatePerSec, N: requests, Seed: seed,
			}),
			maxOutput: mixtralMaxOutput,
		},
	}
}

// clampSource caps generation lengths on the way out of a generator.
type clampSource struct {
	src       workload.Source
	maxOutput int
}

func (c *clampSource) Next() (workload.Request, bool) {
	q, ok := c.src.Next()
	if q.OutputTokens > c.maxOutput {
		q.OutputTokens = c.maxOutput
	}
	return q, ok
}

// Session-fleet shape: 8 instances with room to double, session openers
// arriving at sessionsRate req/s, each conversation averaging three turns.
const (
	sessionsInstances = 8
	sessionsRate      = 20.0
)

// buildSessionsFaults runs the Mixtral-Offloading baseline (synchronous
// speculative SyncLoad over LRU) on a three-tier hierarchy with DRAM at
// half the expert bytes, behind semantic-affinity routing and
// queue-pressure autoscaling, serving closed-loop multi-turn sessions
// while one instance crashes and another's PCIe link browns out.
func buildSessionsFaults(seed uint64, requests int, wrap policyWrapper) *fleet {
	m := moe.NewModel(moe.Tiny(), modelSeed)
	cfg := m.Cfg
	engine := func(int) *serve.Engine {
		return serve.New(serve.Options{
			Model: m, GPU: memsim.RTX3090(), NumGPUs: 1,
			Policy: wrap.apply(baselines.NewMixtralOffload(m)),
			Memory: memsim.ThreeTier(cfg.TotalExpertBytes() / 2),
		})
	}
	engines := make([]*serve.Engine, sessionsInstances)
	for i := range engines {
		engines[i] = engine(i)
	}
	sess := workload.NewSessions(tinyDataset(), cfg.SemDim,
		workload.SessionConfig{MeanTurns: 3, ThinkTimeS: 0.5, Drift: 0.05}, seed)
	span := float64(requests) / sessionsRate * 1000 // openers' expected span, ms
	return &fleet{
		model: m,
		opts: cluster.Options{
			Engines:       engines,
			Router:        cluster.NewSemanticAffinity(cluster.SemanticAffinityOptions{}),
			Autoscaler:    cluster.NewQueuePressure(cluster.QueuePressureOptions{}),
			EngineFactory: engine,
			MaxInstances:  2 * sessionsInstances,
			FollowUp: func(done serve.RequestMetrics, orig workload.Request) (workload.Request, bool) {
				return sess.FollowUp(orig, done.EndMS)
			},
			FaultPlan: &faults.Plan{
				Crashes: []faults.Crash{{AtMS: 0.35 * span, Instance: 1, DetectMS: 0.05 * span}},
				Brownouts: []faults.Brownout{{AtMS: 0.2 * span, DurationMS: 0.5 * span,
					Link: faults.LinkPCIe, Factor: 0.1, Instance: 2}},
			},
			Resilience: cluster.ResilienceOptions{
				Enabled:        true,
				TimeoutMS:      2000,
				MaxRetries:     3,
				HedgeAfterMS:   40,
				RequeueOnCrash: true,
				ReplaceOnCrash: true,
				Seed:           modelSeed,
			},
		},
		src: sess.StreamInitial(workload.Poisson{RatePerSec: sessionsRate}, requests, 0),
	}
}

package experiments

import (
	"fmt"

	"finemoe/internal/cluster"
	"finemoe/internal/metrics"
	"finemoe/internal/moe"
	"finemoe/internal/par"
	"finemoe/internal/serve"
	"finemoe/internal/workload"
)

func init() {
	register("autoscalefig",
		"Fleet autoscaling: fixed 1/2/4-instance fleets vs queue-pressure autoscaling under the clusterfig load sweep",
		runAutoscaleFig)
}

// autoscaleMax bounds the autoscaled fleet at the big fixed fleet's size,
// so the comparison asks exactly the ROADMAP question: can elastic
// capacity match fixed-4 latency at high load while paying fixed-1-like
// instance-hours at low load?
const autoscaleMax = clusterInstances

// autoscaledCluster assembles the elastic fleet: one cold instance, a
// queue-pressure policy with an aggressive tick so scale-up keeps pace
// with the sweep's Poisson bursts, and an EngineFactory producing the
// same cold-store instances the fixed fleets start from.
func autoscaledCluster(c *Context, cfg moe.Config) *cluster.Cluster {
	return cluster.New(cluster.Options{
		Engines:   clusterEngines(c, cfg, 1),
		Admission: cluster.NewAlwaysAdmit(),
		Router:    cluster.NewLeastLoaded(),
		Autoscaler: cluster.NewQueuePressure(cluster.QueuePressureOptions{
			HighWatermark: 1.5,
			LowWatermark:  1.0,
			SustainMS:     50,
			CooldownMS:    50,
		}),
		EngineFactory: func(id int) *serve.Engine {
			return clusterEngines(c, cfg, 1)[0]
		},
		MinInstances:        1,
		MaxInstances:        autoscaleMax,
		AutoscaleIntervalMS: 25,
	})
}

// autoscaleTrace is the clusterfig sweep trace followed by a sparse
// cool-down tail at 1/8 the burst rate — the diurnal-decay phase where a
// fixed big fleet idles but an elastic one shrinks. Every fleet in the
// comparison replays the identical trace.
func autoscaleTrace(c *Context, cfg moe.Config, mult float64) []workload.Request {
	burst := clusterTrace(c, cfg, mult)
	ds := c.dataset(workload.LMSYSChat1M())
	tail := c.clampLens(workload.AzureTrace(ds, cfg.SemDim, workload.TraceConfig{
		RatePerSec: c.Scale.OnlineRate / 8, // decay is absolute, not load-scaled
		N:          c.Scale.OnlineRequests / 2,
		Seed:       c.Seed + 1,
		IDBase:     1 << 33, // disjoint from the burst's request IDs
	}))
	start := burst[len(burst)-1].ArrivalMS
	for i := range tail {
		tail[i].ArrivalMS += start
	}
	return append(append([]workload.Request(nil), burst...), tail...)
}

// autoscaleRun executes one fleet configuration against a trace.
// fixed <= 0 runs the autoscaled fleet.
func autoscaleRun(c *Context, cfg moe.Config, trace []workload.Request, fixed int) *cluster.Result {
	var cl *cluster.Cluster
	if fixed > 0 {
		cl = cluster.New(cluster.Options{
			Engines:   clusterEngines(c, cfg, fixed),
			Admission: cluster.NewAlwaysAdmit(),
			Router:    cluster.NewLeastLoaded(),
		})
	} else {
		cl = autoscaledCluster(c, cfg)
	}
	return cl.RunTrace(trace)
}

// runAutoscaleFig compares fixed 1/2/4-instance fleets against the
// queue-pressure autoscaled fleet across the clusterfig load sweep. The
// expected shape: at high load the autoscaled fleet grows to the big
// fleet's size fast enough to track its tail latency, while at low load
// it idles near one instance and pays a fraction of the fixed-4 fleet's
// instance-hours; shrink events fire during the post-burst drain.
func runAutoscaleFig(c *Context) (*Output, error) {
	cfg := paperModels()[0] // Mixtral-8x7B, the paper's lead model
	c.Model(cfg)            // warm the memoized simulator before fanning out
	type job struct {
		mult  float64
		trace []workload.Request
		fixed int // <= 0 runs the autoscaled fleet
	}
	var jobs []job
	for _, mult := range []float64{1, 2, 4} {
		// One trace per load multiplier, shared read-only by its four
		// fleet cells (RunTrace copies requests by value).
		trace := autoscaleTrace(c, cfg, mult)
		for _, n := range []int{1, 2, clusterInstances} {
			jobs = append(jobs, job{mult, trace, n})
		}
		jobs = append(jobs, job{mult, trace, 0})
	}
	// Each (load, fleet) cell replays the sweep trace on an independent
	// fleet; the bounded worker pool runs them concurrently and rows are
	// emitted in sweep order, keeping the table byte-identical to a
	// serial sweep.
	results := make([]*cluster.Result, len(jobs))
	par.ForEach(c.Workers, len(jobs), func(i int) {
		results[i] = autoscaleRun(c, cfg, jobs[i].trace, jobs[i].fixed)
	})
	t := metrics.NewTable("load_mult", "fleet", "p99_ttft_s", "ttft_s",
		"hit_rate", "instance_hours", "grows", "shrinks")
	for i, j := range jobs {
		res := results[i]
		if j.fixed > 0 {
			t.Row(fmt.Sprintf("%.0fx", j.mult), fmt.Sprintf("fixed-%d", j.fixed),
				metrics.Seconds(res.TTFT.P99), metrics.Seconds(res.MeanTTFT),
				fmt.Sprintf("%.3f", res.HitRate),
				fmt.Sprintf("%.5f", res.InstanceHours), 0, 0)
			continue
		}
		grows, shrinks := 0, 0
		for _, ev := range res.ScaleEvents {
			if ev.Kind == "grow" {
				grows++
			} else {
				shrinks++
			}
		}
		t.Row(fmt.Sprintf("%.0fx", j.mult), "autoscaled",
			metrics.Seconds(res.TTFT.P99), metrics.Seconds(res.MeanTTFT),
			fmt.Sprintf("%.3f", res.HitRate),
			fmt.Sprintf("%.5f", res.InstanceHours), grows, shrinks)
	}
	return &Output{ID: "autoscalefig",
		Title: "Queue-pressure autoscaling vs fixed fleets (LMSYS, Azure-style arrivals)",
		Table: t,
		Notes: []string{
			"expected shape: autoscaled p99 TTFT within 10% of fixed-4 at 4x load",
			"expected shape: autoscaled instance-hours < fixed-4 at 1x load",
			"expected shape: shrink events fire in the post-burst drain",
		}}, nil
}

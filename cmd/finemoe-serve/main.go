// Command finemoe-serve exposes the FineMoE serving simulator as an HTTP
// service over a cluster of serving instances. Each request flows through
// the admission → routing → instance pipeline; every instance's Expert Map
// Store starts empty and warms up as requests flow, improving hit rates
// and latency over time.
//
// Endpoints:
//
//	POST /v1/generate  {"prompt_topic": 3, "input_tokens": 37, "output_tokens": 32}
//	  -> per-request metrics (simulated TTFT/TPOT/E2E, expert hits/misses,
//	     serving instance); 429 when the admission policy sheds the request
//	GET  /v1/stats
//	  -> fleet-wide and per-instance serving statistics: queue depth,
//	     admission rejections, hit rates, store state
//	GET  /v1/config
//	  -> model, testbed, fleet and policy configuration
//	POST /v1/faults    {"instance": 1, "action": "crash"}
//	  -> crash an instance in place, or "restore" it with a cold
//	     replacement under a new ID
//	GET  /healthz
//	  -> per-replica health (healthy/degraded/crashed/draining); 200 while
//	     at least one replica is routable, 503 "unavailable" when none is
//
// Usage:
//
//	finemoe-serve -model mixtral -addr :8080 -gpus 6 -cache-gb 27 \
//	  -instances 4 -admission token-bucket -admit-rate 8 -router semantic
//
// With -dram-gb each instance's host DRAM is bounded: experts beyond the
// budget live on a simulated NVMe tier and pay NVMe->DRAM->HBM staging
// on distinct contended links when fetched. /v1/stats then reports
// per-tier residency and transfer activity plus each instance's memory
// pressure, and the memory-aware router (-router memory-aware) breaks
// load ties toward instances with DRAM headroom:
//
//	finemoe-serve -model mixtral -instances 4 -dram-gb 24 -router memory-aware
//
// -cache-gb 0 (the default) caches 30% of the model's expert weights per
// instance, in both the live and the -replay mode.
//
// With -autoscale the fleet resizes itself on queue pressure, evaluated
// on the cluster's shared-clock ticks while requests simulate: sustained
// load above the high watermark adds a fresh cold instance under a new
// ID (up to -max-instances), and sustained low load retires the
// least-loaded instance (down to -min-instances) — a fully idle server
// holds its size until traffic resumes. Retired instances finish
// in-flight work but receive no further routes and are never reused:
//
//	finemoe-serve -model mixtral -instances 1 -autoscale -min-instances 1 -max-instances 8
//
// The live server and -replay build their fleet from the same
// scenarios.Options and FleetSpec through one cluster.Cluster, so a
// replay predicts the live server's routing and scaling. Requests that
// reach the live server while a batch simulates are offered together as
// the next batch, stamped at the fleet makespan; the simulation runs on
// one host goroutine at a time, not in parallel across instances.
//
// With -replay N the server does not listen at all: it generates N
// synthetic requests on the arrival process named by -arrival (poisson,
// mmpp, diurnal, flash — see internal/workload presets) at -arrival-rate
// req/s, replays them through the simulated cluster, prints the scenario
// report, and exits — a one-command load rehearsal for a fleet
// configuration. An -arrival-rate that is not finite and > 0 exits 2
// with an error:
//
//	finemoe-serve -model tiny -instances 2 -router semantic -autoscale \
//	  -replay 64 -arrival mmpp -arrival-rate 8
//
// Replay can also rehearse failures: -faults injects a deterministic
// fault schedule (compact syntax, see internal/faults.ParsePlan) and the
// resilience flags arm request-level fault tolerance — crash re-queue +
// cold replacement, bounded retries with deterministic backoff, optional
// per-request timeouts and hedged re-dispatch. The report then carries
// availability accounting (failed/lost/retries/goodput):
//
//	finemoe-serve -model tiny -instances 3 -replay 64 \
//	  -faults "crash@2000:i1:d400,brownout@1000+2000:pcie:x0.25:i2" \
//	  -resilience -retries 3 -hedge-ms 1500
//
// The live HTTP server exposes the same failure vocabulary operationally:
// POST /v1/faults {"instance": 1, "action": "crash"} fails an instance in
// place and it leaves the routable set at once; "restore" answers that
// crash with one cold replacement (empty store and cache) and responds
// with the replacement's new instance ID, while the crashed instance
// stays crashed. /healthz reports per-instance
// healthy/degraded/crashed/draining states.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"

	"finemoe/internal/cluster"
	"finemoe/internal/faults"
	"finemoe/internal/httpserve"
	"finemoe/internal/memsim"
	"finemoe/internal/moe"
	"finemoe/internal/scenarios"
	"finemoe/internal/workload"
)

func modelByName(name string) (moe.Config, error) {
	switch strings.ToLower(name) {
	case "mixtral":
		return moe.Mixtral8x7B(), nil
	case "qwen":
		return moe.Qwen15MoE(), nil
	case "phi":
		return moe.Phi35MoE(), nil
	case "tiny":
		return moe.Tiny(), nil
	}
	return moe.Config{}, fmt.Errorf("unknown model %q (mixtral|qwen|phi|tiny)", name)
}

// cacheBytes resolves -cache-gb for both modes: a positive budget in GiB,
// or 30% of the model's expert weights for 0 (or less).
func cacheBytes(gb float64, cfg moe.Config) int64 {
	if gb > 0 {
		return int64(gb * float64(int64(1)<<30))
	}
	return int64(float64(cfg.TotalExpertBytes()) * 0.3)
}

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		modelArg   = flag.String("model", "mixtral", "model: mixtral|qwen|phi|tiny")
		gpus       = flag.Int("gpus", 6, "expert-parallel GPU count per instance")
		cacheGB    = flag.Float64("cache-gb", 0, "expert cache budget per instance in GiB (0 = 30% of expert weights)")
		dramGB     = flag.Float64("dram-gb", 0, "host DRAM budget per instance in GiB; experts beyond it spill to a simulated NVMe tier (0 = unbounded DRAM)")
		seed       = flag.Uint64("seed", 42, "simulation seed")
		instances  = flag.Int("instances", 1, "number of serving instances")
		admitArg   = flag.String("admission", "always", "admission policy: always|token-bucket|reject-all")
		admitBurst = flag.Float64("admit-burst", 32, "token-bucket capacity (with -admission token-bucket)")
		admitRate  = flag.Float64("admit-rate", 8, "token-bucket refill per second (with -admission token-bucket)")
		routerArg  = flag.String("router", "least-loaded", "router policy: round-robin|least-loaded|memory-aware|semantic")
		autoscale  = flag.Bool("autoscale", false, "resize the fleet on queue pressure (grow under load, retire idle instances)")
		minInst    = flag.Int("min-instances", 1, "autoscaling floor (with -autoscale)")
		maxInst    = flag.Int("max-instances", 8, "autoscaling ceiling (with -autoscale)")
		replayN    = flag.Int("replay", 0, "replay N synthetic requests through the pipeline and exit instead of serving")
		arrival    = flag.String("arrival", "poisson", "replay arrival process: poisson|mmpp|diurnal|flash (with -replay)")
		arrRate    = flag.Float64("arrival-rate", 2.91, "replay mean arrival rate in req/s (with -replay)")
		faultsArg  = flag.String("faults", "", `replay fault plan, e.g. "crash@2000:i1:d400,brownout@1000+2000:pcie:x0.25" (with -replay)`)
		resilient  = flag.Bool("resilience", false, "arm request-level fault tolerance in replay: crash re-queue + cold replacement")
		retries    = flag.Int("retries", 3, "max retry attempts per request (with -resilience)")
		timeoutMS  = flag.Float64("timeout-ms", 0, "per-request timeout before retry, ms (with -resilience; 0 = none)")
		hedgeMS    = flag.Float64("hedge-ms", 0, "hedged re-dispatch delay, ms (with -resilience; 0 = no hedging)")
		retryFrac  = flag.Float64("retry-budget", 0, "per-tenant retry budget as a fraction of offered requests (with -resilience; 0 = unbounded)")
	)
	flag.Parse()

	cfg, err := modelByName(*modelArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// The live server and -replay share one fleet description; resolving
	// the policy names here makes a bad name a usage error in both modes.
	opts := scenarios.Options{
		Model: cfg, GPU: memsim.RTX3090(), NumGPUs: *gpus, Seed: *seed,
		CacheBytes: cacheBytes(*cacheGB, cfg),
		DRAMBytes:  int64(*dramGB * float64(int64(1)<<30)), // 0 = unbounded DRAM
	}
	fleet := scenarios.FleetSpec{
		Instances:  *instances,
		Router:     strings.ToLower(*routerArg),
		Admission:  strings.ToLower(*admitArg),
		AdmitBurst: *admitBurst, AdmitRate: *admitRate,
		Autoscale:    *autoscale,
		MinInstances: *minInst, MaxInstances: *maxInst,
	}
	if _, err := scenarios.NewAdmission(fleet.Admission, fleet.AdmitBurst, fleet.AdmitRate); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if _, err := scenarios.NewRouter(fleet.Router); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *replayN > 0 {
		ap, err := workload.ArrivalByName(strings.ToLower(*arrival), *arrRate)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		var fspec *scenarios.FaultSpec
		if *faultsArg != "" || *resilient {
			fspec = &scenarios.FaultSpec{}
			if *faultsArg != "" {
				plan, err := faults.ParsePlan(*faultsArg)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(2)
				}
				fspec.Crashes = plan.Crashes
				fspec.Brownouts = plan.Brownouts
				fspec.Stalls = plan.Stalls
			}
			if *resilient {
				fspec.Resilience = cluster.ResilienceOptions{
					Enabled:         true,
					MaxRetries:      *retries,
					TimeoutMS:       *timeoutMS,
					HedgeAfterMS:    *hedgeMS,
					RetryBudgetFrac: *retryFrac,
					RequeueOnCrash:  true,
					ReplaceOnCrash:  true,
					Seed:            *seed,
				}
			}
		}
		rep, err := scenarios.NewRunner(opts).Run(scenarios.Scenario{
			Name: "replay",
			Workload: scenarios.WorkloadSpec{
				Dataset:  workload.LMSYSChat1M(),
				Arrivals: ap,
				Requests: *replayN,
			},
			Fleet:  fleet,
			Faults: fspec,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(rep)
		if rep.Faulted {
			fmt.Printf("faults: crashes=%d failed=%d lost_in_flight=%d retries=%d hedged_wins=%d degraded=%.0fms goodput=%.4f\n",
				rep.Crashes, rep.Failed, rep.Lost, rep.Retries, rep.HedgedWins,
				rep.DegradedMS, rep.Goodput)
		}
		return
	}

	srv, err := httpserve.New(opts, fleet, workload.LMSYSChat1M())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	info := srv.ConfigInfo()
	scaleInfo := ""
	if *autoscale {
		scaleInfo = fmt.Sprintf(" autoscale=[%d,%d]", *minInst, *maxInst)
	}
	log.Printf("finemoe-serve: %s, %d instance(s) × %d GPU(s), admission=%s router=%s%s, listening on %s",
		cfg.Name, info["instances"], *gpus, info["admission"], info["router"], scaleInfo, *addr)
	if err := http.ListenAndServe(*addr, srv.Handler()); err != nil {
		log.Fatal(err)
	}
}

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
//	  -> crash a replica in place, or "restore" it with a cold restart
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
// With -autoscale the fleet resizes itself on queue pressure, evaluated
// at each admitted arrival: sustained load above the high watermark adds
// an instance (up to -max-instances, reusing drained retired replicas
// first), and sustained low load retires the least-loaded replica (down
// to -min-instances) as subsequent arrivals are admitted — a fully idle
// server holds its size until traffic resumes. Retired instances finish
// in-flight work but receive no further routes:
//
//	finemoe-serve -model mixtral -instances 1 -autoscale -min-instances 1 -max-instances 8
//
// With -replay N the server does not listen at all: it generates N
// synthetic requests on the arrival process named by -arrival (poisson,
// mmpp, diurnal, flash — see internal/workload presets) at -arrival-rate
// req/s, replays them through the simulated cluster (scenarios.Runner
// driving cluster.Cluster with the same model, fleet and policy flags;
// the HTTP path runs its own fleet code in internal/httpserve), prints
// the scenario report, and exits — a one-command load rehearsal for a
// fleet configuration. An -arrival-rate that is not finite and > 0 exits
// 2 with an error:
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
// POST /v1/faults {"instance": 1, "action": "crash"} fails a replica in
// place (restore replaces it cold), /healthz reports per-replica
// healthy/degraded/crashed/draining states, and crashed replicas leave
// the routable set until restored.
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

// admissionByName and routerByName delegate to the scenarios resolvers so
// the HTTP path and -replay mode share one name-to-policy table.
func admissionByName(name string, burst, rate float64) (cluster.Admission, error) {
	return scenarios.NewAdmission(strings.ToLower(name), burst, rate)
}

func routerByName(name string) (cluster.Router, error) {
	return scenarios.NewRouter(strings.ToLower(name))
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
	adm, err := admissionByName(*admitArg, *admitBurst, *admitRate)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rt, err := routerByName(*routerArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var cacheBytes int64
	if *cacheGB > 0 {
		cacheBytes = int64(*cacheGB * float64(int64(1)<<30))
	}
	dramBytes := int64(*dramGB * float64(int64(1)<<30)) // 0 = unbounded DRAM
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
		runner := scenarios.NewRunner(scenarios.Options{
			Model: cfg, GPU: memsim.RTX3090(), NumGPUs: *gpus, Seed: *seed,
			CacheBytes: cacheBytes,
			DRAMBytes:  dramBytes,
		})
		rep, err := runner.Run(scenarios.Scenario{
			Name: "replay",
			Workload: scenarios.WorkloadSpec{
				Dataset:  workload.LMSYSChat1M(),
				Arrivals: ap,
				Requests: *replayN,
			},
			Fleet: scenarios.FleetSpec{
				Instances:  *instances,
				Router:     strings.ToLower(*routerArg),
				Admission:  strings.ToLower(*admitArg),
				AdmitBurst: *admitBurst, AdmitRate: *admitRate,
				Autoscale:    *autoscale,
				MinInstances: *minInst, MaxInstances: *maxInst,
			},
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

	var scaler cluster.Autoscaler
	if *autoscale {
		scaler = cluster.NewQueuePressure(cluster.QueuePressureOptions{})
	}
	srv := httpserve.New(httpserve.Config{
		Model: cfg, Seed: *seed,
		GPU: memsim.RTX3090(), NumGPUs: *gpus,
		CacheBytes:   cacheBytes,
		DRAMBytes:    dramBytes,
		Instances:    *instances,
		Admission:    adm,
		Router:       rt,
		Autoscaler:   scaler,
		MinInstances: *minInst,
		MaxInstances: *maxInst,
	})

	scaleInfo := ""
	if *autoscale {
		scaleInfo = fmt.Sprintf(" autoscale=[%d,%d]", *minInst, *maxInst)
	}
	log.Printf("finemoe-serve: %s, %d instance(s) × %d GPU(s), admission=%s router=%s%s, listening on %s",
		cfg.Name, *instances, *gpus, adm.Name(), rt.Name(), scaleInfo, *addr)
	if err := http.ListenAndServe(*addr, srv.Handler()); err != nil {
		log.Fatal(err)
	}
}

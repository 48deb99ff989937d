// Command finemoe-bench runs the paper-reproduction experiments and prints
// their tables.
//
// Usage:
//
//	finemoe-bench -list
//	finemoe-bench -exp fig10
//	finemoe-bench -exp fig10,fig12 -scale full -seed 42
//	finemoe-bench -all -scale small
//	finemoe-bench -exp fig18 -csv
//
// Experiment IDs match DESIGN.md §3 (tab1, fig1b, fig3a–fig4, fig8–fig18,
// abl-sync, abl-ep, abl-dedup), plus extensions beyond the paper:
// clusterfig (the cluster router comparison under an Azure-trace load
// sweep), autoscalefig (fixed fleets vs queue-pressure autoscaling),
// scenariofig (the scenario gauntlet: Poisson/MMPP/diurnal/flash-crowd
// arrivals, closed-loop multi-turn sessions, and a two-tenant mix across
// fixed round-robin and autoscaled semantic-affinity fleets), searchfig
// (approximate expert-map search), and memfig (the latency-memory
// trade-off: p99 TTFT vs provisioned host DRAM under the three-tier
// HBM/DRAM/NVMe hierarchy). The "full" scale uses the paper's workload
// parameters; "small" is a fast smoke configuration.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"finemoe/internal/experiments"
	"finemoe/internal/walltime"
)

func main() {
	var (
		list  = flag.Bool("list", false, "list available experiments and exit")
		exp   = flag.String("exp", "", "comma-separated experiment IDs to run")
		all   = flag.Bool("all", false, "run every registered experiment")
		scale = flag.String("scale", "full", `workload scale: "full" (paper parameters) or "small"`)
		seed  = flag.Uint64("seed", 42, "simulation seed")
		csv   = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		quiet = flag.Bool("q", false, "suppress progress timing")

		workers = flag.Int("workers", 0,
			"worker pool for the cluster-sweep experiments (0 = GOMAXPROCS, 1 = serial); tables are identical either way")
		searchBench = flag.String("searchbench", "",
			"run the expert-map search micro-benchmarks and write the JSON baseline (BENCH_search.json) to this path, then exit")
		clusterBench = flag.String("clusterbench", "",
			"run the cluster-loop benchmark (materialized trace vs streaming source, byte-parity checked) and write the JSON baseline (BENCH_cluster.json) to this path, then exit")
		clusterBenchN = flag.Int("clusterbench-n", 1_000_000,
			"request count for -clusterbench (the committed baseline uses 1M; CI smoke uses a small value)")
		clusterBenchInstances = flag.Int("clusterbench-instances", 32,
			"fleet size for -clusterbench")
		clusterBenchHorizon = flag.Int("clusterbench-horizon", 0,
			"additional streaming-only long-horizon request count for -clusterbench (0 = skip; the committed baseline uses 10M)")
		cpuProfile = flag.String("cpuprofile", "",
			"write a pprof CPU profile of the experiment runs to this file")
		memProfile = flag.String("memprofile", "",
			"write a pprof heap profile to this file after the runs")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.List() {
			fmt.Printf("%-8s  %s\n", e.ID, e.Title)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	writeMemProfile := func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // up-to-date allocation statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
	}

	if *searchBench != "" {
		if err := runSearchBench(*searchBench); err != nil {
			fmt.Fprintf(os.Stderr, "searchbench: %v\n", err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Printf("wrote search benchmark baseline to %s\n", *searchBench)
		}
		writeMemProfile()
		return
	}

	if *clusterBench != "" {
		if err := runClusterBench(*clusterBench, *clusterBenchN, *clusterBenchInstances, *clusterBenchHorizon); err != nil {
			fmt.Fprintf(os.Stderr, "clusterbench: %v\n", err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Printf("wrote cluster benchmark baseline to %s\n", *clusterBench)
		}
		writeMemProfile()
		return
	}

	var sc experiments.Scale
	switch *scale {
	case "full":
		sc = experiments.Full
	case "small":
		sc = experiments.Small
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (use full or small)\n", *scale)
		os.Exit(2)
	}

	var ids []string
	switch {
	case *all:
		for _, e := range experiments.List() {
			ids = append(ids, e.ID)
		}
	case *exp != "":
		for _, id := range strings.Split(*exp, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	default:
		fmt.Fprintln(os.Stderr, "nothing to do: pass -exp <ids>, -all, or -list")
		os.Exit(2)
	}

	ctx := experiments.NewContext(sc, *seed)
	ctx.Workers = *workers
	for _, id := range ids {
		watch := walltime.Start()
		out, err := experiments.Run(ctx, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Printf("# %s: %s\n%s", out.ID, out.Title, out.Table.CSV())
		} else {
			fmt.Println(out.String())
		}
		if !*quiet {
			fmt.Printf("-- %s completed in %v --\n\n", id, watch.ElapsedRounded(time.Millisecond))
		}
	}
	writeMemProfile()
}

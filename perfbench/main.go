// Command perfbench is the FineMoE simulator's benchmark. It runs one
// named workload through cluster.New(...).RunStream with the program's
// defaults (serial loop, one process), checks the result, and prints
// every end-to-end metric; with --trace 1 it instead pairs untraced and
// traced repeats and prints the per-layer metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the module root, or through run.sh from the repository
// root):
//
//	perfbench --workload fleet-tiny-mmpp --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and what each per-layer
// metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"finemoe/internal/walltime"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload benchWorkload
	seed     uint64
	seconds  float64
	trace    bool
	// requests is the trace length: the workload's own, or fewer in tests.
	requests int
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from traced repeats")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return config{}, err
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return config{}, fmt.Errorf("--seconds must be positive")
	}
	return config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, requests: w.requests}, nil
}

// minRepeats is the fewest untraced repeats a run makes, however long
// they take: repeat-to-repeat parity needs two. The Tiny workloads fit
// ten or more into a 20 s budget; paper-mixtral-warm, at ~20 s a repeat,
// stops at two so a run stays near a minute on a loaded host.
const minRepeats = 2

// Set-up is timed on every repeat. When it is cheap (the Tiny fleets
// build in under a millisecond) that one cold build is too short to time
// well, so each repeat is followed instead by setupSamples batched
// set-up-only timings (see timeSetup).
const (
	setupSamples = 2
	cheapSetupS  = 0.5
)

func run(args []string, stdout io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	return execute(cfg, stdout)
}

// execute runs the configured measurement and prints the report line.
func execute(cfg config, stdout io.Writer) error {
	fmt.Fprintf(stdout, "perfbench %s seed=%d requests=%d %s NumCPU=%d GOMAXPROCS=%d\n",
		cfg.workload.name, cfg.seed, cfg.requests, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	var (
		rep report
		err error
	)
	if cfg.trace {
		rep, err = runTraced(cfg, stdout)
	} else {
		rep, err = runPlain(cfg, stdout)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// session checks that every repeat of one workload and seed reproduces
// the first: same digest, same virtual-time metrics.
type session struct {
	first *runOutcome
}

func (s *session) add(o runOutcome) error {
	if s.first == nil {
		s.first = &o
		return nil
	}
	if o.digest != s.first.digest {
		return fmt.Errorf("result digest %s differs from the first repeat's %s", o.digest[:12], s.first.digest[:12])
	}
	if o.sim != s.first.sim || o.counts != s.first.counts {
		return fmt.Errorf("virtual-time metrics differ between repeats: %+v vs %+v", o.sim, s.first.sim)
	}
	return nil
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

func logRepeat(w io.Writer, kind string, i int, o runOutcome) {
	fmt.Fprintf(w, "%s %d: setup %.4f CPU s, %d admitted, %.2f CPU us/request (%.2f wall), %.1f allocs/request, live heap %.2f MB at end, %.2f MB peak, %d GCs, digest %s\n",
		kind, i, o.setupS, o.admitted, o.cpuUSPerRequest(), o.wallUSPerRequest(), float64(o.mem.mallocs)/float64(o.admitted),
		mb(o.mem.endLiveHeap), mb(o.mem.peakLiveHeap), o.mem.gcCycles, o.digest[:12])
}

// runPlain repeats the untraced workload until the budget is spent and
// reports the medians of the host metrics next to the virtual-time ones.
func runPlain(cfg config, stdout io.Writer) (report, error) {
	var s session
	var setup, cpuUS, heapMB, allocs []float64
	budget := walltime.Start()
	for i := 0; i < minRepeats || budget.Elapsed().Seconds() < cfg.seconds; i++ {
		o, err := runOnce(cfg.workload, cfg.seed, cfg.requests, nil)
		if err != nil {
			return report{}, fmt.Errorf("repeat %d: %w", i, err)
		}
		if err := s.add(o); err != nil {
			return report{}, fmt.Errorf("repeat %d: %w", i, err)
		}
		logRepeat(stdout, "repeat", i, o)
		if o.setupS < cheapSetupS {
			for k := 0; k < setupSamples; k++ {
				sec, err := timeSetup(cfg.workload, cfg.seed, cfg.requests)
				if err != nil {
					return report{}, err
				}
				setup = append(setup, sec)
			}
		} else {
			setup = append(setup, o.setupS)
		}
		cpuUS = append(cpuUS, o.cpuUSPerRequest())
		heapMB = append(heapMB, mb(o.mem.endLiveHeap))
		allocs = append(allocs, float64(o.mem.mallocs)/float64(o.admitted))
	}
	f := s.first
	sim := f.sim
	fmt.Fprintf(stdout, "%d repeats; TTFT over %d served requests, TPOT over %d (p99 has %d and %d samples beyond it)\n",
		len(cpuUS), sim.ttftSamples, sim.tpotSamples, sim.ttftSamples/100, sim.tpotSamples/100)
	return report{
		Correct:   true,
		Attempted: f.offered * len(cpuUS),
		Failed:    (f.offered - f.served) * len(cpuUS),
		Metrics: map[string]metric{
			"host_cpu_us_per_request": {median(cpuUS), "us"},
			"live_heap_mb":            {median(heapMB), "MB"},
			"allocs_per_request":      {median(allocs), "count"},
			"setup_s":                 {median(setup), "s"},
			"sim_ttft_p50_ms":         {sim.ttftP50, "sim_ms"},
			"sim_ttft_p99_ms":         {sim.ttftP99, "sim_ms"},
			"sim_tpot_p50_ms":         {sim.tpotP50, "sim_ms"},
			"sim_tpot_p99_ms":         {sim.tpotP99, "sim_ms"},
			"sim_expert_hit_rate":     {sim.hitRate, "ratio"},
			"sim_served_ratio":        {sim.servedRatio, "ratio"},
		},
	}, nil
}

// runTraced alternates untraced and traced repeats until the budget is
// spent. Every traced repeat must reproduce the untraced digest; the
// per-layer metrics are medians over the traced repeats.
func runTraced(cfg config, stdout io.Writer) (report, error) {
	var s session
	samples := map[string][]float64{}
	units := map[string]string{}
	attempted, failed := 0, 0
	budget := walltime.Start()
	for i := 0; i == 0 || budget.Elapsed().Seconds() < cfg.seconds; i++ {
		plain, err := runOnce(cfg.workload, cfg.seed, cfg.requests, nil)
		if err != nil {
			return report{}, fmt.Errorf("untraced repeat %d: %w", i, err)
		}
		if err := s.add(plain); err != nil {
			return report{}, fmt.Errorf("untraced repeat %d: %w", i, err)
		}
		logRepeat(stdout, "untraced", i, plain)
		t := &layerTrace{}
		traced, err := runOnce(cfg.workload, cfg.seed, cfg.requests, t)
		if err != nil {
			return report{}, fmt.Errorf("traced repeat %d: %w", i, err)
		}
		if err := s.add(traced); err != nil {
			return report{}, fmt.Errorf("traced repeat %d: wrappers are not transparent: %w", i, err)
		}
		logRepeat(stdout, "traced", i, traced)
		if len(t.specs) != traced.offered {
			return report{}, fmt.Errorf("traced repeat %d: recorded %d prompts for %d offered", i, len(t.specs), traced.offered)
		}
		iters, passNS := tracerPass(t.model, t.specs)
		for name, m := range layerMetrics(t, traced, plain, iters, passNS) {
			samples[name] = append(samples[name], m.Value)
			units[name] = m.Unit
		}
		for _, o := range []runOutcome{plain, traced} {
			attempted += o.offered
			failed += o.offered - o.served
		}
	}
	out := make(map[string]metric, len(samples))
	for name, xs := range samples {
		out[name] = metric{median(xs), units[name]}
	}
	return report{Correct: true, Attempted: attempted, Failed: failed, Metrics: out}, nil
}

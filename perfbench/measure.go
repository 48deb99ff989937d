package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"

	"finemoe/internal/cluster"
	"finemoe/internal/walltime"
)

// liveHeapMetric is the heap the last completed GC marked live. Unlike
// MemStats.HeapAlloc it excludes garbage not yet swept, so its peak is a
// footprint, not an artifact of when the collector last ran.
const liveHeapMetric = "/gc/heap/live:bytes"

// readLiveHeap returns the live heap as of the last completed GC.
func readLiveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// gcSentinel is the object whose finalizer marks the end of a GC cycle.
// It holds a pointer so it is never tiny-allocated (a tiny-allocated
// object may share its block with others and never be finalized).
type gcSentinel struct{ _ *int }

// heapSampler records the peak post-GC live heap without a clock: a
// finalizer fires once per completed GC cycle, samples the live heap and
// re-arms itself on a fresh sentinel.
type heapSampler struct {
	mu      sync.Mutex
	peak    uint64
	stopped bool
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{}
	h.arm()
	return h
}

func (h *heapSampler) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.stopped {
			return
		}
		h.observe(readLiveHeap())
		h.arm()
	})
}

// observe folds one sample into the peak; callers hold mu.
func (h *heapSampler) observe(v uint64) {
	if v > h.peak {
		h.peak = v
	}
}

// stop forces a final collection and returns the live heap it found
// (end) and the largest live heap of any cycle, that one included (peak),
// in bytes.
func (h *heapSampler) stop() (peak, end uint64) {
	runtime.GC()
	end = readLiveHeap()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.observe(end)
	h.stopped = true
	return h.peak, end
}

// memProbe brackets a run with exact allocation counters. ReadMemStats
// stops the world and flushes every per-P cache, so its counts are exact;
// runtime/metrics counts small objects only when a span is refilled.
type memProbe struct {
	start runtime.MemStats
	heap  *heapSampler
}

type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	// endLiveHeap is the live heap after a forced GC at the end of the
	// run; peakLiveHeap the largest live heap of any GC cycle in it.
	endLiveHeap, peakLiveHeap uint64
}

func startMemProbe() *memProbe {
	p := &memProbe{}
	runtime.ReadMemStats(&p.start)
	p.heap = startHeapSampler()
	return p
}

func (p *memProbe) stop() memDelta {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	d := memDelta{
		mallocs:  end.Mallocs - p.start.Mallocs,
		bytes:    end.TotalAlloc - p.start.TotalAlloc,
		gcCycles: end.NumGC - p.start.NumGC,
	}
	d.peakLiveHeap, d.endLiveHeap = p.heap.stop()
	return d
}

// digest hashes the serialized result without keeping the bytes: the
// parity check needs only the hash, and a retained Result would inflate
// every later repeat's heap.
func digest(res *cluster.Result) (string, error) {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(res); err != nil {
		return "", fmt.Errorf("serialize result: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// simMetrics are the virtual-time outcomes of one run. They are a pure
// function of the program and the seed, so every repeat must reproduce
// them exactly.
type simMetrics struct {
	ttftP50, ttftP99, tpotP50, tpotP99 float64
	hitRate, servedRatio               float64
	ttftSamples, tpotSamples           int
}

// checkResult verifies the run's accounting invariants and returns its
// virtual-time metrics. offered is trace requests plus follow-ups.
func checkResult(res *cluster.Result, requests int) (simMetrics, error) {
	offered := requests + res.FollowUps
	if res.Served+res.FailedRequests != res.Admitted {
		return simMetrics{}, fmt.Errorf("served %d + failed %d != admitted %d",
			res.Served, res.FailedRequests, res.Admitted)
	}
	if res.Admitted+res.Rejected != offered {
		return simMetrics{}, fmt.Errorf("admitted %d + rejected %d != offered %d",
			res.Admitted, res.Rejected, offered)
	}
	for _, in := range res.Instances {
		for _, q := range in.Result.Requests {
			if !(q.TTFTms >= 0) || !(q.TPOTms >= 0) {
				return simMetrics{}, fmt.Errorf("request %d: TTFT %v ms, TPOT %v ms", q.ID, q.TTFTms, q.TPOTms)
			}
		}
	}
	if res.TTFT.N != res.Served {
		return simMetrics{}, fmt.Errorf("TTFT has %d samples for %d served", res.TTFT.N, res.Served)
	}
	return simMetrics{
		ttftP50: res.TTFT.P50, ttftP99: res.TTFT.P99,
		tpotP50: res.TPOT.P50, tpotP99: res.TPOT.P99,
		hitRate:     res.HitRate,
		servedRatio: float64(res.Served) / float64(offered),
		ttftSamples: res.TTFT.N, tpotSamples: res.TPOT.N,
	}, nil
}

// runOutcome is one repeat's measurement. The Result itself is dropped
// as soon as its digest, checks and counters are taken.
type runOutcome struct {
	// setupS is the process CPU time (every thread, GC workers included)
	// building the fleet took; wallNS and cpuNS are RunStream's wall time
	// and the process CPU time it took.
	setupS        float64
	wallNS, cpuNS float64
	admitted      int
	offered       int
	served        int
	mem           memDelta
	sim           simMetrics
	counts        simCounts
	digest        string
}

func (o runOutcome) wallUSPerRequest() float64 { return o.wallNS / 1e3 / float64(o.admitted) }

func (o runOutcome) cpuUSPerRequest() float64 { return o.cpuNS / 1e3 / float64(o.admitted) }

// processCPUNS returns the CPU time the process has used so far. Unlike
// wall time it leaves out the time the hypervisor runs other guests on
// this vCPU: on a shared 2-vCPU VM that steal reached half of a vCPU and
// spread the wall time of ten runs by 35% where CPU time spread by 3%.
func processCPUNS() (int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), nil
}

// collectGarbage drops everything the previous repeat left behind before
// the next one is built, so run order does not leak into the heap
// numbers. The second cycle frees what the first could only queue for
// finalization, such as the heap sampler's last sentinel.
func collectGarbage() {
	runtime.GC()
	runtime.GC()
}

// runOnce builds a fresh fleet for w and runs it through RunStream, then
// checks and digests the result. With t nil the program runs exactly as
// configured; otherwise every layer boundary is wrapped and timed into t.
func runOnce(w benchWorkload, seed uint64, requests int, t *layerTrace) (runOutcome, error) {
	collectGarbage()
	var wrap policyWrapper
	if t != nil {
		wrap = t.wrap
	}
	setup0, err := processCPUNS()
	if err != nil {
		return runOutcome{}, err
	}
	f := w.build(seed, requests, wrap)
	if t != nil {
		instrument(f, t)
	}
	c := cluster.New(f.opts)
	cpu0, err := processCPUNS()
	if err != nil {
		return runOutcome{}, err
	}

	probe := startMemProbe()
	sw := walltime.Start()
	res := c.RunStream(f.src)
	wall := sw.Elapsed()
	cpu1, err := processCPUNS()
	if err != nil {
		return runOutcome{}, err
	}
	mem := probe.stop()
	// The fleet stays reachable through the final GC, so the end sample
	// counts the simulator's state and not only the result.
	runtime.KeepAlive(c)

	out := runOutcome{
		setupS: float64(cpu0-setup0) / 1e9, wallNS: float64(wall.Nanoseconds()), cpuNS: float64(cpu1 - cpu0),
		admitted: res.Admitted, offered: requests + res.FollowUps, served: res.Served, mem: mem,
	}
	if res.Admitted == 0 {
		return out, fmt.Errorf("no request admitted")
	}
	if out.sim, err = checkResult(res, requests); err != nil {
		return out, err
	}
	out.counts = countResult(res)
	if t != nil {
		t.model = f.model
	}
	out.digest, err = digest(res)
	return out, err
}

// setupBatch is how many fleets timeSetup builds back to back: one
// sub-millisecond build is at the mercy of a single cache or page-fault
// hiccup, a batch averages them out.
const setupBatch = 8

// timeSetup builds and discards setupBatch fleets after a collection and
// returns the mean set-up CPU seconds per fleet.
func timeSetup(w benchWorkload, seed uint64, requests int) (float64, error) {
	collectGarbage()
	start, err := processCPUNS()
	if err != nil {
		return 0, err
	}
	for i := 0; i < setupBatch; i++ {
		cluster.New(w.build(seed, requests, nil).opts)
	}
	end, err := processCPUNS()
	return float64(end-start) / 1e9 / setupBatch, err
}

// median returns the middle value (mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

package main

import (
	"finemoe/internal/cluster"
	"finemoe/internal/moe"
	"finemoe/internal/policy"
	"finemoe/internal/walltime"
)

// simCounts are the per-layer virtual-time counters a cluster.Result
// already carries, summed over the fleet. Like the sim_* metrics they
// repeat exactly for a given seed.
type simCounts struct {
	retries, hedgedWins, lostInFlight, scaleEvents, peakInstances int
	overheadBytes                                                 int64
	iterations                                                    int
	// breakdownMS is the Fig. 17 simulated ms per iteration, fleet-wide.
	breakdownMS                            [policy.NumComponents]float64
	insertions, evictions, rejectedInserts int
	prefetches, onDemands                  int
	linkBusyMS, stagingBusyMS              float64
	dramPromotions, dramDrops              int
	memoryPressure                         float64
}

func countResult(res *cluster.Result) simCounts {
	c := simCounts{
		retries: res.Retries, hedgedWins: res.HedgedWins, lostInFlight: res.LostInFlight,
		scaleEvents: len(res.ScaleEvents), peakInstances: res.PeakInstances,
	}
	var compMS [policy.NumComponents]float64
	for _, in := range res.Instances {
		r := in.Result
		c.overheadBytes += r.PolicyOverheadBytes
		c.iterations += r.Iterations
		for i, name := range policy.Components {
			// Breakdown holds per-instance means; weight them back to totals.
			compMS[i] += r.Breakdown[name] * float64(r.Iterations)
		}
		c.insertions += r.CacheStats.Insertions
		c.evictions += r.CacheStats.Evictions
		c.rejectedInserts += r.CacheStats.RejectedInserts
		c.prefetches += r.LinkStats.Prefetches
		c.onDemands += r.LinkStats.OnDemands
		c.linkBusyMS += r.LinkStats.BusyMS
		if len(r.Tiers) > 2 {
			// Tier 1 is DRAM; the link feeding it is the staging link.
			c.stagingBusyMS += r.Tiers[1].Link.BusyMS
		}
		if len(r.Tiers) > 1 {
			c.dramPromotions += r.Tiers[1].Promotions
			c.dramDrops += r.Tiers[1].Drops
		}
		c.memoryPressure += r.MemoryPressure / float64(len(res.Instances))
	}
	if c.iterations > 0 {
		for i := range compMS {
			c.breakdownMS[i] = compMS[i] / float64(c.iterations)
		}
	}
	return c
}

// tracerPass replays every prompt the traced run offered through a
// standalone moe.Tracer, the way each engine traces a request it admits.
// It returns the iterations simulated and the host nanoseconds taken.
func tracerPass(m *moe.Model, specs []moe.PromptSpec) (iterations int, ns int64) {
	tr := m.NewTracer()
	var its []*moe.Iteration
	sw := walltime.Start()
	for _, spec := range specs {
		its = tr.Trace(spec, its)
		iterations += len(its)
		tr.Recycle(its)
	}
	return iterations, int64(sw.Elapsed())
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// perCall divides, reporting 0 for a boundary that was never crossed.
func perCall(num float64, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return num / float64(calls)
}

// layerMetrics turns one traced repeat, the untraced repeat it was paired
// with, and the standalone tracer pass into the per-layer metric set.
func layerMetrics(t *layerTrace, traced, plain runOutcome, passIters int, passNS int64) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ns := func(name string, s span) {
		put(name+"_ns", float64(s.ns), "ns")
		put(name+"_calls", float64(s.calls), "count")
	}
	ns("workload.next", t.next)
	ns("cluster.route", t.route)
	ns("cluster.autoscale", t.autoscale)
	ns("cluster.followup", t.followUp)
	put("cluster.loop_self_ns_per_request", (traced.wallNS-float64(t.childNS()))/float64(traced.admitted), "ns")
	c := traced.counts
	put("cluster.retries", float64(c.retries), "count")
	put("cluster.hedged_wins", float64(c.hedgedWins), "count")
	put("cluster.lost_in_flight", float64(c.lostInFlight), "count")
	put("cluster.scale_events", float64(c.scaleEvents), "count")
	put("cluster.peak_instances", float64(c.peakInstances), "count")

	put("moe.trace_ns_per_iteration", perCall(float64(passNS), int64(passIters)), "ns")
	put("moe.iterations", float64(passIters), "count")
	put("moe.trace_share", float64(passNS)/plain.wallNS, "ratio")

	hook := func(name string, s allocSpan) {
		ns(name, s.span)
		put(name+"_allocs_per_call", perCall(float64(s.allocs), s.sampled), "count")
	}
	hook("policy.start_iteration", t.startIter)
	hook("policy.on_gate", t.onGate)
	hook("policy.end_iteration", t.endIter)
	put("policy.overhead_bytes", float64(c.overheadBytes), "bytes")

	ns("serve.prefetch", t.prefetch)
	put("serve.prefetch_accept_ratio", perCall(float64(t.prefetchAccepted), t.prefetch.calls), "ratio")
	ns("serve.syncload", t.syncLoad)
	put("serve.resident_calls", float64(t.residentN), "count")
	put("serve.tracked_calls", float64(t.trackedN), "count")
	put("serve.iterations", float64(c.iterations), "count")
	for i, name := range policy.Components {
		put("serve.breakdown."+name+"_ms", c.breakdownMS[i], "sim_ms")
	}

	put("cache.insertions", float64(c.insertions), "count")
	put("cache.evictions", float64(c.evictions), "count")
	put("cache.rejected_inserts", float64(c.rejectedInserts), "count")

	put("memsim.prefetches", float64(c.prefetches), "count")
	put("memsim.on_demands", float64(c.onDemands), "count")
	put("memsim.link_busy_ms", c.linkBusyMS, "sim_ms")
	put("memsim.staging_busy_ms", c.stagingBusyMS, "sim_ms")
	put("memsim.dram_promotions", float64(c.dramPromotions), "count")
	put("memsim.dram_drops", float64(c.dramDrops), "count")
	put("memsim.memory_pressure", c.memoryPressure, "ratio")

	put("runtime.gc_cycles", float64(plain.mem.gcCycles), "count")
	put("runtime.peak_live_heap_mb", mb(plain.mem.peakLiveHeap), "MB")
	put("runtime.alloc_bytes_per_request", float64(plain.mem.bytes)/float64(plain.admitted), "bytes")

	put("bench.wall_us_per_request", plain.wallUSPerRequest(), "us")
	put("bench.tracing_overhead_us_per_request", traced.cpuUSPerRequest()-plain.cpuUSPerRequest(), "us")
	return m
}

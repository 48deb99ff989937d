package cluster

import (
	"math"
	"testing"

	"finemoe/internal/moe"
	"finemoe/internal/serve"
)

// S1 heap-staleness audit. The cluster caches each engine's next event
// time in the event heap and refreshes it only at the loop's own mutation
// points. Two hazards follow: (a) staging-heavy engines move their next
// event time on almost every step (fetch completions, staging-link
// arrivals, batch boundaries), so a missed refresh shows up fastest
// there; (b) external callers mutating an engine behind Instances() stale
// the cache until SyncEvents repairs it. Both are pinned here.

// TestHeapStalenessStagingHeavy interleaves offers, bounded steps and
// autoscale resizes over a staging-heavy three-tier fleet, cross-checking
// the cached heap against the linear scan after every single operation.
func TestHeapStalenessStagingHeavy(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 37)
	c := New(Options{
		Engines: stagedEngines(m, 3),
		Router:  NewLeastLoaded(),
		Autoscaler: NewQueuePressure(QueuePressureOptions{
			HighWatermark: 1.0, LowWatermark: 0.5, SustainMS: 1, CooldownMS: 1,
		}),
		EngineFactory: func(id int) *serve.Engine { return stagedEngines(m, 1)[0] },
		MinInstances:  1,
		MaxInstances:  6,
	})
	checkHeapAgainstScan(t, c)

	trace := testTrace(cfg, 48, 55, 41)
	tick := 0.0
	for i, q := range trace {
		c.Offer(q)
		checkHeapAgainstScan(t, c)
		// Step roughly half the backlog as we go so queues stay hot and
		// the staging link is saturated when later offers land.
		if i%2 == 1 {
			if tm, which := c.nextInstanceEvent(); which >= 0 {
				c.Step(tm)
				checkHeapAgainstScan(t, c)
			}
		}
		if i%8 == 7 {
			tick += 25
			c.autoscale(tick)
			checkHeapAgainstScan(t, c)
		}
	}
	steps := 0
	for {
		tm, which := c.nextInstanceEvent()
		if which < 0 {
			break
		}
		if !c.Step(tm) {
			t.Fatal("Step refused its own next event time")
		}
		steps++
		checkHeapAgainstScan(t, c)
	}
	if steps == 0 {
		t.Fatal("degenerate run: no instance events stepped")
	}
}

// TestHeapExternalMutationRepair pins the staleness hazard documented on
// Instances() and the SyncEvents contract: submitting to an engine behind
// the accessor leaves the heap pointing at the old minimum, and one
// SyncEvents call restores agreement with the scan.
func TestHeapExternalMutationRepair(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 37)
	c := New(Options{Engines: testEngines(m, 3), Router: NewRoundRobin()})

	// One offered request gives instance 0 an event at 100.
	c.Offer(tbReq(cfg, 1, 100))
	if tm, which := c.nextInstanceEvent(); tm != 100 || which != 0 {
		t.Fatalf("after offer: heap (t=%v, i=%d), want (100, 0)", tm, which)
	}

	// Mutate instance 1 behind the accessor: a pending request at 50 is
	// now the true fleet minimum, but the cache still says 100@0.
	c.Instances()[1].Engine.Submit(tbReq(cfg, 2, 50))
	ht, hi := c.nextInstanceEvent()
	st, si := c.nextInstanceEventScan()
	if ht != 100 || hi != 0 {
		t.Fatalf("cached heap moved without refresh: (t=%v, i=%d)", ht, hi)
	}
	if st != 50 || si != 1 {
		t.Fatalf("scan missed the external submit: (t=%v, i=%d)", st, si)
	}

	// SyncEvents is the documented repair.
	c.SyncEvents()
	checkHeapAgainstScan(t, c)
	if tm, which := c.nextInstanceEvent(); tm != 50 || which != 1 {
		t.Fatalf("after SyncEvents: heap (t=%v, i=%d), want (50, 1)", tm, which)
	}

	// The repaired loop drains both requests.
	c.Drain()
	if got := c.Instances()[0].Engine.CompletedCount() + c.Instances()[1].Engine.CompletedCount(); got != 2 {
		t.Fatalf("served %d requests after repair, want 2", got)
	}
	if tm, which := c.nextInstanceEvent(); which != -1 || !math.IsInf(tm, 1) {
		t.Fatalf("drained fleet reports event (t=%v, i=%d)", tm, which)
	}
}

// TestHeapStalenessStagedRun re-runs the staging-heavy interleaving
// through RunTrace and cross-checks the heap at the end: the loop's own
// refreshes must leave the cache exactly where a full scan lands.
func TestHeapStalenessStagedRun(t *testing.T) {
	cfg := moe.Tiny()
	m := moe.NewModel(cfg, 37)
	c := New(Options{
		Engines: stagedEngines(m, 4),
		Router:  NewLeastLoaded(),
	})
	c.RunTrace(testTrace(cfg, 40, 55, 41))
	checkHeapAgainstScan(t, c)
}

package main

import (
	"runtime"

	"finemoe/internal/cache"
	"finemoe/internal/cluster"
	"finemoe/internal/moe"
	"finemoe/internal/policy"
	"finemoe/internal/serve"
	"finemoe/internal/walltime"
	"finemoe/internal/workload"
)

// span accumulates the calls into one layer boundary and their host time.
type span struct {
	calls int64
	ns    int64
}

func (s *span) end(sw walltime.Stopwatch) int64 {
	d := int64(sw.Elapsed())
	s.calls++
	s.ns += d
	return d
}

// allocSpan is a span whose allocations are sampled: every
// allocSampleStride-th call is bracketed by ReadMemStats, outside the
// timed interval, and the sampling cost is charged to the probe span.
type allocSpan struct {
	span
	sampled, allocs int64
}

const allocSampleStride = 128

// layerTrace is the traced run's ledger: one span per public interface
// the cluster loop calls into, plus the policy.Runtime calls the policy
// makes back into the engine.
type layerTrace struct {
	next, route, autoscale, followUp span
	// Policy hooks; their ns is self time (runtime calls excluded).
	startIter, onGate, endIter allocSpan
	// startReq and endReq are timed only so loop self time excludes them.
	startReq, endReq allocSpan
	// Runtime calls made by the policy.
	prefetch, syncLoad  span
	prefetchAccepted    int64
	residentN, trackedN int64
	runtimeNS           int64 // running total of timed runtime calls
	probe               span  // allocation-sampling overhead
	// specs records every prompt offered, for the standalone tracer
	// pass over the model the fleet was built with.
	specs             []moe.PromptSpec
	model             *moe.Model
	msBefore, msAfter runtime.MemStats
}

// policyNS is the policy hooks' inclusive host time: self time plus the
// runtime calls they made.
func (t *layerTrace) policyNS() int64 {
	return t.startIter.ns + t.onGate.ns + t.endIter.ns + t.startReq.ns + t.endReq.ns +
		t.prefetch.ns + t.syncLoad.ns
}

// childNS is the host time of every timed child of RunStream.
func (t *layerTrace) childNS() int64 {
	return t.next.ns + t.route.ns + t.autoscale.ns + t.followUp.ns + t.policyNS() + t.probe.ns
}

// instrument wraps the fleet's source, router, autoscaler and follow-up
// hook; policies are wrapped at build time (see wrap). The wrappers only
// forward and count, so the instrumented run must produce a
// byte-identical result.
func instrument(f *fleet, t *layerTrace) {
	f.src = &tracedSource{src: f.src, t: t}
	if f.opts.Router == nil {
		// cluster.New's default, made explicit so it can be wrapped.
		f.opts.Router = cluster.NewRoundRobin()
	}
	f.opts.Router = &tracedRouter{r: f.opts.Router, t: t}
	if a := f.opts.Autoscaler; a != nil {
		ta := &tracedAutoscaler{a: a, t: t}
		if fb, ok := a.(cluster.DecisionFeedback); ok {
			f.opts.Autoscaler = &tracedFeedbackAutoscaler{tracedAutoscaler: ta, fb: fb}
		} else {
			f.opts.Autoscaler = ta
		}
	}
	if fu := f.opts.FollowUp; fu != nil {
		f.opts.FollowUp = func(done serve.RequestMetrics, orig workload.Request) (workload.Request, bool) {
			sw := walltime.Start()
			q, ok := fu(done, orig)
			t.followUp.end(sw)
			if ok {
				t.specs = append(t.specs, q.PromptSpec)
			}
			return q, ok
		}
	}
}

// wrap is the policy wrapper the fleet builders apply before each engine
// is constructed: engines attach their policy in serve.New, so the timed
// runtime has to be in place by then.
func (t *layerTrace) wrap(p policy.Policy) policy.Policy { return &tracedPolicy{p: p, t: t} }

type tracedSource struct {
	src workload.Source
	t   *layerTrace
}

func (s *tracedSource) Next() (workload.Request, bool) {
	sw := walltime.Start()
	q, ok := s.src.Next()
	s.t.next.end(sw)
	if ok {
		s.t.specs = append(s.t.specs, q.PromptSpec)
	}
	return q, ok
}

type tracedRouter struct {
	r cluster.Router
	t *layerTrace
}

func (r *tracedRouter) Name() string { return r.r.Name() }

func (r *tracedRouter) Route(req workload.Request, nowMS float64, fleet []cluster.InstanceState) int {
	sw := walltime.Start()
	i := r.r.Route(req, nowMS, fleet)
	r.t.route.end(sw)
	return i
}

type tracedAutoscaler struct {
	a cluster.Autoscaler
	t *layerTrace
}

func (a *tracedAutoscaler) Name() string { return a.a.Name() }

func (a *tracedAutoscaler) Decide(nowMS float64, fleet []cluster.InstanceState) cluster.Decision {
	sw := walltime.Start()
	d := a.a.Decide(nowMS, fleet)
	a.t.autoscale.end(sw)
	return d
}

// tracedFeedbackAutoscaler forwards cluster.DecisionFeedback: without it
// a refused resize would charge the wrapped policy's cooldown and the
// traced run would diverge from the untraced one.
type tracedFeedbackAutoscaler struct {
	*tracedAutoscaler
	fb cluster.DecisionFeedback
}

func (a *tracedFeedbackAutoscaler) DecisionApplied(d cluster.Decision, applied bool) {
	sw := walltime.Start()
	a.fb.DecisionApplied(d, applied)
	a.t.autoscale.ns += int64(sw.Elapsed())
}

// tracedPolicy times the hooks the engine calls and hands the wrapped
// policy a timed runtime.
type tracedPolicy struct {
	p policy.Policy
	t *layerTrace
}

func (p *tracedPolicy) Name() string                  { return p.p.Name() }
func (p *tracedPolicy) Attach(rt policy.Runtime)      { p.p.Attach(&tracedRuntime{rt: rt, t: p.t}) }
func (p *tracedPolicy) Scorer() cache.Scorer          { return p.p.Scorer() }
func (p *tracedPolicy) Breakdown() map[string]float64 { return p.p.Breakdown() }
func (p *tracedPolicy) MemoryOverheadBytes() int64    { return p.p.MemoryOverheadBytes() }

func (p *tracedPolicy) StartRequest(reqID uint64, now float64) float64 {
	var d float64
	p.t.hook(&p.t.startReq, func() { d = p.p.StartRequest(reqID, now) })
	return d
}

func (p *tracedPolicy) EndRequest(reqID uint64, now float64) {
	p.t.hook(&p.t.endReq, func() { p.p.EndRequest(reqID, now) })
}

func (p *tracedPolicy) StartIteration(views []policy.IterView, now float64) float64 {
	var d float64
	p.t.hook(&p.t.startIter, func() { d = p.p.StartIteration(views, now) })
	return d
}

func (p *tracedPolicy) OnGate(layer int, views []policy.LayerView, now float64) float64 {
	var d float64
	p.t.hook(&p.t.onGate, func() { d = p.p.OnGate(layer, views, now) })
	return d
}

func (p *tracedPolicy) EndIteration(reqID uint64, it *moe.Iteration, now float64) float64 {
	var d float64
	p.t.hook(&p.t.endIter, func() { d = p.p.EndIteration(reqID, it, now) })
	return d
}

// hook times one policy hook as self time, sampling its allocations on
// every allocSampleStride-th call.
func (t *layerTrace) hook(s *allocSpan, call func()) {
	sample := s.calls%allocSampleStride == 0
	if sample {
		psw := walltime.Start()
		runtime.ReadMemStats(&t.msBefore)
		t.probe.ns += int64(psw.Elapsed())
	}
	rt0 := t.runtimeNS
	sw := walltime.Start()
	call()
	d := int64(sw.Elapsed())
	s.calls++
	s.ns += d - (t.runtimeNS - rt0)
	if sample {
		psw := walltime.Start()
		runtime.ReadMemStats(&t.msAfter)
		t.probe.ns += int64(psw.Elapsed())
		s.sampled++
		s.allocs += int64(t.msAfter.Mallocs - t.msBefore.Mallocs)
	}
}

// tracedRuntime times the policy.Runtime surface into cache and memsim.
// Resident and Tracked are only counted: they cost a few nanoseconds, so
// timing them would mostly measure the clock.
type tracedRuntime struct {
	rt policy.Runtime
	t  *layerTrace
}

func (r *tracedRuntime) Config() moe.Config { return r.rt.Config() }

func (r *tracedRuntime) Prefetch(ref moe.ExpertRef, priority, issueTime float64) bool {
	sw := walltime.Start()
	ok := r.rt.Prefetch(ref, priority, issueTime)
	r.t.runtimeNS += r.t.prefetch.end(sw)
	if ok {
		r.t.prefetchAccepted++
	}
	return ok
}

func (r *tracedRuntime) SyncLoad(refs []moe.ExpertRef, now float64) float64 {
	sw := walltime.Start()
	end := r.rt.SyncLoad(refs, now)
	r.t.runtimeNS += r.t.syncLoad.end(sw)
	return end
}

func (r *tracedRuntime) Resident(ref moe.ExpertRef) bool {
	r.t.residentN++
	return r.rt.Resident(ref)
}

func (r *tracedRuntime) Tracked(ref moe.ExpertRef) bool {
	r.t.trackedN++
	return r.rt.Tracked(ref)
}

func (r *tracedRuntime) Tier(ref moe.ExpertRef) int { return r.rt.Tier(ref) }

func (r *tracedRuntime) Promote(ref moe.ExpertRef, priority, issueTime float64) bool {
	return r.rt.Promote(ref, priority, issueTime)
}

func (r *tracedRuntime) Demote(ref moe.ExpertRef, now float64) bool { return r.rt.Demote(ref, now) }

func (r *tracedRuntime) MemoryPressure() float64 { return r.rt.MemoryPressure() }

// Package httpserve exposes the FineMoE serving simulator over HTTP — the
// demo surface of cmd/finemoe-serve. The server is a thin front over one
// cluster.Cluster, built from the same scenarios.Options and FleetSpec a
// finemoe-serve -replay run uses (scenarios.Runner.ClusterOptions), so
// every admission, routing, autoscaling, crash and replacement decision
// is the cluster's. Each instance's Expert Map Store starts empty and
// warms up as requests flow, so successive requests see improving hit
// rates and latency, mirroring the paper's online-serving behaviour
// (§6.3).
//
// One mutex guards the server. A request is stamped at the fleet
// makespan, offered to the cluster (Offer) and simulated to completion
// (Drain); requests that arrive while a batch simulates wait and are
// offered together as the next batch, so concurrent clients appear as
// queue depth to the router and to the queue-pressure autoscaler, which
// runs on the cluster's own shared-clock ticks. The mutex is released
// while a batch simulates; everything that reads the cluster (stats,
// health, config, faults) waits for the batch to finish.
//
// POST /v1/faults crashes an instance (it leaves the routable set at
// once) or restores it with one cold replacement under a new ID;
// /healthz and /v1/stats report each instance's health state
// (healthy | degraded | crashed | draining).
package httpserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"

	"finemoe/internal/cluster"
	"finemoe/internal/core"
	"finemoe/internal/moe"
	"finemoe/internal/rng"
	"finemoe/internal/scenarios"
	"finemoe/internal/serve"
	"finemoe/internal/tensor"
	"finemoe/internal/workload"
)

// Server serves simulated requests through one cluster.
type Server struct {
	cfg     moe.Config
	dataset workload.Dataset
	// info is the fixed part of /v1/config.
	info              map[string]any
	admission, router string

	mu sync.Mutex
	// idle is signalled (under mu) each time a batch finishes.
	idle sync.Cond
	cl   *cluster.Cluster
	// busy marks a batch simulating with mu released; only the goroutine
	// that started it touches the cluster until it clears busy.
	busy bool
	// pending holds the requests waiting for the next batch.
	pending []*call
	// clock is the fleet makespan after the last batch: the next batch's
	// arrival stamp.
	clock  float64
	nextID uint64
	// served accumulates each instance's completions, which the server
	// takes from the engines to keep their memory bounded.
	served map[int]tally
}

// call is one Generate waiting for its batch.
type call struct {
	req  workload.Request
	resp GenerateResponse
	err  error
	done bool
}

// tally is one instance's cumulative serving statistics.
type tally struct {
	served           int
	hits, misses     int
	sumTTFT, sumTPOT float64
}

// New builds a server over the fleet that opts and fleet describe — the
// pair finemoe-serve -replay hands scenarios.Runner — and draws synthetic
// prompts from ds (zero value: LMSYS-Chat-1M). A zero fleet.Instances
// serves one instance and an empty fleet.Router routes least-loaded.
func New(opts scenarios.Options, fleet scenarios.FleetSpec, ds workload.Dataset) (*Server, error) {
	if opts.Model.Name == "" {
		return nil, errors.New("httpserve: no model")
	}
	if fleet.Instances <= 0 {
		fleet.Instances = 1
	}
	if fleet.Router == "" {
		fleet.Router = "least-loaded"
	}
	if ds.Name == "" {
		ds = workload.LMSYSChat1M()
	}
	copts, err := scenarios.NewRunner(opts).ClusterOptions(fleet, nil)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg: opts.Model, dataset: ds,
		admission: copts.Admission.Name(), router: copts.Router.Name(),
		cl:     cluster.New(copts),
		served: map[int]tally{},
	}
	s.idle.L = &s.mu
	pol := s.cl.Instances()[0].Engine.Policy().(*core.FineMoE)
	s.info = map[string]any{
		"model":             s.cfg.Name,
		"layers":            s.cfg.Layers,
		"experts_per_layer": s.cfg.RoutedExperts,
		"top_k":             s.cfg.TopK,
		"prefetch_distance": pol.PrefetchDistance(),
		"store_capacity":    pol.Store().Capacity(),
		"dataset":           ds.Name,
		"admission":         s.admission,
		"router":            s.router,
		"memory_tiers":      []string{"HBM", "DRAM"},
	}
	if opts.DRAMBytes > 0 {
		s.info["dram_bytes"] = opts.DRAMBytes
		s.info["memory_tiers"] = []string{"HBM", "DRAM", "NVMe"}
	}
	if copts.Autoscaler != nil {
		s.info["autoscaler"] = copts.Autoscaler.Name()
		s.info["min_instances"] = copts.MinInstances
		s.info["max_instances"] = copts.MaxInstances
	}
	return s, nil
}

// lockIdle locks mu once no batch is simulating, so the caller may read
// or change the cluster. Release with s.mu.Unlock.
func (s *Server) lockIdle() {
	s.mu.Lock()
	for s.busy {
		s.idle.Wait()
	}
}

// store returns an engine's Expert Map Store (the runner builds every
// engine around a FineMoE policy).
func store(e *serve.Engine) *core.Store { return e.Policy().(*core.FineMoE).Store() }

// degradedPressure is the host-DRAM thrash level above which an instance
// reports "degraded" health: past it, a substantial fraction of expert
// fetches spill below DRAM and latency visibly suffers.
const degradedPressure = 0.5

// health classifies one instance's state.
func health(in *cluster.Instance) string {
	switch {
	case in.Crashed:
		return "crashed"
	case in.Retiring:
		return "draining"
	case in.Engine.MemoryPressure() > degradedPressure:
		return "degraded"
	}
	return "healthy"
}

// Crash fails instance id: it leaves the routable set at once (the
// server is its own failure detector) and reports "crashed" health from
// then on. Unknown IDs are rejected.
func (s *Server) Crash(id int) error {
	s.lockIdle()
	defer s.mu.Unlock()
	return s.cl.Crash(id)
}

// Restore answers crashed instance id with one cold replacement — empty
// Expert Map Store, empty expert cache — and returns the replacement's
// ID. Each crash is restored at most once, within the fleet's
// MaxInstances.
func (s *Server) Restore(id int) (int, error) {
	s.lockIdle()
	defer s.mu.Unlock()
	return s.cl.Replace(id)
}

// GenerateRequest is the POST /v1/generate body.
type GenerateRequest struct {
	// PromptTopic selects a topic cluster (-1 or out of range = derived
	// from the request ID).
	PromptTopic int `json:"prompt_topic"`
	// InputTokens / OutputTokens control lengths (defaults 37/32).
	InputTokens  int `json:"input_tokens"`
	OutputTokens int `json:"output_tokens"`
}

// GenerateResponse reports one simulated request.
type GenerateResponse struct {
	RequestID   uint64  `json:"request_id"`
	Topic       int     `json:"topic"`
	Instance    int     `json:"instance"`
	TTFTms      float64 `json:"ttft_ms"`
	TPOTms      float64 `json:"tpot_ms"`
	E2Ems       float64 `json:"e2e_ms"`
	Hits        int     `json:"expert_hits"`
	Misses      int     `json:"expert_misses"`
	HitRate     float64 `json:"hit_rate"`
	StoreSize   int     `json:"store_size"`
	VirtualTime float64 `json:"virtual_time_ms"`
}

// InstanceStats reports one instance's cumulative state for /v1/stats.
// QueueDepth is the routing-visible load signal — requests routed to the
// instance and not yet finished — so the per-instance values sum to the
// fleet-level QueueDepth.
type InstanceStats struct {
	ID         int  `json:"id"`
	Served     int  `json:"served_requests"`
	QueueDepth int  `json:"queue_depth"`
	Retired    bool `json:"retired"`
	// Health is the replica's state: healthy | degraded | crashed |
	// draining (see /healthz).
	Health      string  `json:"health"`
	HitRate     float64 `json:"hit_rate"`
	MeanTTFTms  float64 `json:"mean_ttft_ms"`
	StoreSize   int     `json:"store_size"`
	VirtualTime float64 `json:"virtual_time_ms"`
	// MemPressure is the instance's host-DRAM thrash level (decayed
	// fraction of expert fetches spilling below DRAM); Tiers the
	// per-tier residency/transfer breakdown (HBM first).
	MemPressure float64     `json:"mem_pressure"`
	Tiers       []TierStats `json:"tiers,omitempty"`
}

// TierStats reports one memory tier's residency and transfer activity
// for the JSON stats surface.
type TierStats struct {
	Name            string  `json:"name"`
	CapacityExperts int     `json:"capacity_experts"` // -1 = unbounded
	ResidentExperts int     `json:"resident_experts"`
	ResidentBytes   int64   `json:"resident_bytes"`
	Pressure        float64 `json:"pressure"`
	Promotions      int     `json:"promotions"`
	Demotions       int     `json:"demotions"`
	Drops           int     `json:"drops"`
	RejectedInserts int     `json:"rejected_inserts"`
	LinkPrefetches  int     `json:"link_prefetches"`
	LinkOnDemands   int     `json:"link_on_demands"`
	LinkBusyMS      float64 `json:"link_busy_ms"`
}

// tierStats maps an engine tier snapshot to the JSON form.
func tierStats(ts []serve.TierStat) []TierStats {
	out := make([]TierStats, len(ts))
	for i, t := range ts {
		out[i] = TierStats{
			Name:            t.Name,
			CapacityExperts: t.CapacityExperts,
			ResidentExperts: t.ResidentExperts,
			ResidentBytes:   t.ResidentBytes,
			Pressure:        t.Pressure,
			Promotions:      t.Promotions,
			Demotions:       t.Demotions,
			Drops:           t.Drops,
			RejectedInserts: t.RejectedInserts,
			LinkPrefetches:  t.Link.Prefetches,
			LinkOnDemands:   t.Link.OnDemands,
			LinkBusyMS:      t.Link.BusyMS,
		}
	}
	return out
}

// StatsResponse reports cumulative serving statistics.
type StatsResponse struct {
	Served      int     `json:"served_requests"`
	Admitted    int     `json:"admitted_requests"`
	Rejected    int     `json:"rejected_requests"`
	QueueDepth  int     `json:"queue_depth"`
	Active      int     `json:"active_instances"`
	Crashed     int     `json:"crashed_instances"`
	MeanTTFTms  float64 `json:"mean_ttft_ms"`
	MeanTPOTms  float64 `json:"mean_tpot_ms"`
	HitRate     float64 `json:"hit_rate"`
	StoreSize   int     `json:"store_size"`
	StoreBytes  int64   `json:"store_bytes"`
	VirtualTime float64 `json:"virtual_time_ms"`
	Admission   string  `json:"admission"`
	Router      string  `json:"router"`
	// MemPressure is the mean host-DRAM thrash level across active
	// instances; Tiers sums capacity, residency and transfer activity
	// per tier across all instances (HBM first), with occupancy
	// recomputed from the fleet sums.
	MemPressure float64         `json:"mem_pressure"`
	Tiers       []TierStats     `json:"tiers,omitempty"`
	Instances   []InstanceStats `json:"instances"`
}

// ErrRejected reports a request shed by the admission policy.
var ErrRejected = fmt.Errorf("httpserve: admission rejected request")

// ErrUnavailable reports that no routable replica remains (every
// instance crashed or draining).
var ErrUnavailable = fmt.Errorf("httpserve: no routable instance")

// request builds request id's synthetic prompt: the topic's direction
// plus seeded noise, so an ID always yields the same embedding. A topic
// that is negative or out of range is derived from the ID.
func (s *Server) request(id uint64, req GenerateRequest) workload.Request {
	topic := req.PromptTopic
	if topic < 0 || topic >= s.dataset.Topics {
		topic = int(rng.Mix(id, 0xF00D) % uint64(s.dataset.Topics))
	}
	emb := tensor.Copy(s.dataset.TopicDirection(s.cfg.SemDim, topic))
	noise := make([]float64, s.cfg.SemDim)
	rng.New(rng.Mix(0xBEEF, id)).UnitVec(noise)
	tensor.Axpy(s.dataset.TopicSpread, noise, emb)
	tensor.Normalize(emb)
	return workload.Request{
		PromptSpec: moe.PromptSpec{
			ID: id, Embedding: emb,
			InputTokens: req.InputTokens, OutputTokens: req.OutputTokens,
			Seed: rng.Mix(0xCAFE, id),
		},
		Topic:   topic,
		Dataset: s.dataset.Name,
	}
}

// Generate serves one request through the cluster's admission → routing
// → instance pipeline, in the next batch. Returns ErrRejected when
// admission sheds it and ErrUnavailable when no instance is routable.
func (s *Server) Generate(req GenerateRequest) (GenerateResponse, error) {
	if req.InputTokens <= 0 {
		req.InputTokens = 37
	}
	if req.OutputTokens <= 0 {
		req.OutputTokens = 32
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &call{req: s.request(s.nextID, req)}
	s.nextID++
	s.pending = append(s.pending, c)
	for !c.done {
		if s.busy {
			s.idle.Wait()
		} else {
			s.runBatch()
		}
	}
	return c.resp, c.err
}

// runBatch offers every pending request at the fleet makespan, drains the
// cluster with mu released, and completes each call from the metrics its
// instance's engine recorded. Caller holds mu and no batch is running.
func (s *Server) runBatch() {
	batch := s.pending
	s.pending = nil
	for _, c := range batch {
		c.req.ArrivalMS = s.clock
		c.err = ErrRejected
		if s.cl.ActiveSize() == 0 {
			c.err = ErrUnavailable
		}
		c.resp = GenerateResponse{RequestID: c.req.ID, Topic: c.req.Topic, Instance: s.cl.Offer(c.req)}
	}
	s.busy = true
	s.mu.Unlock()
	clock := s.cl.Drain()
	s.mu.Lock()
	s.busy = false
	s.clock = clock

	done := make(map[uint64]serve.RequestMetrics, len(batch))
	for _, in := range s.cl.Instances() {
		for _, m := range in.Engine.TakeCompleted() {
			t := s.served[in.ID]
			t.served++
			t.hits += m.Hits
			t.misses += m.Misses
			t.sumTTFT += m.TTFTms
			t.sumTPOT += m.TPOTms
			s.served[in.ID] = t
			done[m.ID] = m
		}
	}
	for _, c := range batch {
		c.done = true
		if c.resp.Instance < 0 {
			continue
		}
		// Instance IDs are assigned from 0 and never reused, so they
		// index the cluster's append-only instance list.
		e := s.cl.Instances()[c.resp.Instance].Engine
		m := done[c.req.ID]
		c.err = nil
		c.resp.TTFTms, c.resp.TPOTms, c.resp.E2Ems = m.TTFTms, m.TPOTms, m.E2Ems
		c.resp.Hits, c.resp.Misses, c.resp.HitRate = m.Hits, m.Misses, m.HitRate()
		c.resp.StoreSize, c.resp.VirtualTime = store(e).Len(), e.Now()
	}
	s.idle.Broadcast()
}

// Stats returns cumulative fleet statistics.
func (s *Server) Stats() StatsResponse {
	s.lockIdle()
	defer s.mu.Unlock()
	st := StatsResponse{
		Admitted:  s.cl.Admitted(),
		Rejected:  s.cl.Rejected(),
		Admission: s.admission,
		Router:    s.router,
	}
	var sumTTFT, sumTPOT, memSum float64
	var hits, misses int
	for _, in := range s.cl.Instances() {
		e, t := in.Engine, s.served[in.ID]
		is := InstanceStats{
			ID: in.ID, Served: t.served, QueueDepth: e.QueueDepth() + e.InFlight(),
			Retired: in.Retiring, Health: health(in),
			StoreSize: store(e).Len(), VirtualTime: e.Now(),
			MemPressure: e.MemoryPressure(), Tiers: tierStats(e.TierStats()),
		}
		// Fleet tier totals: instances share one hierarchy shape, so
		// summing by position is well-defined. Capacity sums alongside
		// residency (staying -1 while unbounded) and occupancy is
		// recomputed from the sums, so the fleet record is internally
		// consistent rather than inheriting instance 0's values.
		for j, ts := range is.Tiers {
			if j >= len(st.Tiers) {
				st.Tiers = append(st.Tiers, TierStats{Name: ts.Name, CapacityExperts: -1})
			}
			ft := &st.Tiers[j]
			if ts.CapacityExperts >= 0 {
				if ft.CapacityExperts < 0 {
					ft.CapacityExperts = 0
				}
				ft.CapacityExperts += ts.CapacityExperts
			}
			ft.ResidentExperts += ts.ResidentExperts
			ft.ResidentBytes += ts.ResidentBytes
			ft.Promotions += ts.Promotions
			ft.Demotions += ts.Demotions
			ft.Drops += ts.Drops
			ft.RejectedInserts += ts.RejectedInserts
			ft.LinkPrefetches += ts.LinkPrefetches
			ft.LinkOnDemands += ts.LinkOnDemands
			ft.LinkBusyMS += ts.LinkBusyMS
			if ft.CapacityExperts > 0 {
				ft.Pressure = float64(ft.ResidentExperts) / float64(ft.CapacityExperts)
			}
		}
		if in.Crashed {
			st.Crashed++
		} else if !in.Retiring {
			st.Active++
			memSum += is.MemPressure
		}
		if t.served > 0 {
			is.MeanTTFTms = t.sumTTFT / float64(t.served)
		}
		if t.hits+t.misses > 0 {
			is.HitRate = float64(t.hits) / float64(t.hits+t.misses)
		}
		st.Served += t.served
		st.QueueDepth += is.QueueDepth
		st.StoreSize += is.StoreSize
		st.StoreBytes += store(e).MemoryBytes()
		sumTTFT += t.sumTTFT
		sumTPOT += t.sumTPOT
		hits += t.hits
		misses += t.misses
		if is.VirtualTime > st.VirtualTime {
			st.VirtualTime = is.VirtualTime
		}
		st.Instances = append(st.Instances, is)
	}
	if st.Served > 0 {
		st.MeanTTFTms = sumTTFT / float64(st.Served)
		st.MeanTPOTms = sumTPOT / float64(st.Served)
	}
	if hits+misses > 0 {
		st.HitRate = float64(hits) / float64(hits+misses)
	}
	if st.Active > 0 {
		st.MemPressure = memSum / float64(st.Active)
	}
	return st
}

// ConfigInfo describes the deployment for GET /v1/config.
func (s *Server) ConfigInfo() map[string]any {
	s.lockIdle()
	n := len(s.cl.Instances())
	s.mu.Unlock()
	info := make(map[string]any, len(s.info)+1)
	for k, v := range s.info {
		info[k] = v
	}
	info["instances"] = n
	return info
}

// Handler returns the HTTP mux serving the /v1 API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/generate", s.handleGenerate)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/config", s.handleConfig)
	mux.HandleFunc("/v1/faults", s.handleFaults)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// maxBodyBytes bounds POST bodies; valid ones are under 100 bytes.
const maxBodyBytes = 4 << 10

// decodeBody decodes a bounded JSON request body into v, answering 413
// for an oversized body and 400 for a malformed one; it reports whether
// decoding succeeded.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
	} else {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
	}
	return false
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req GenerateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.InputTokens > 2048 || req.OutputTokens > 1024 || req.InputTokens < 0 || req.OutputTokens < 0 {
		http.Error(w, "token counts out of range", http.StatusBadRequest)
		return
	}
	resp, err := s.Generate(req)
	if err != nil {
		code, msg := http.StatusTooManyRequests, "rejected by admission policy"
		if err == ErrUnavailable {
			code, msg = http.StatusServiceUnavailable, "no routable instance"
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		if err := json.NewEncoder(w).Encode(map[string]any{
			"error": msg, "request_id": resp.RequestID,
		}); err != nil {
			log.Printf("httpserve: encode rejection: %v", err)
		}
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Stats())
}

func (s *Server) handleConfig(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.ConfigInfo())
}

// InstanceHealth is one instance's entry in the /healthz fleet list.
type InstanceHealth struct {
	ID     int    `json:"id"`
	Health string `json:"health"`
}

// handleHealthz reports overall and per-instance health. The endpoint
// stays 200 "ok" while at least one instance is routable (healthy or
// degraded) and flips to 503 "unavailable" when none is — the contract
// a load balancer's health check needs.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.lockIdle()
	var fleet []InstanceHealth
	routable := 0
	for _, in := range s.cl.Instances() {
		h := health(in)
		if h == "healthy" || h == "degraded" {
			routable++
		}
		fleet = append(fleet, InstanceHealth{ID: in.ID, Health: h})
	}
	s.mu.Unlock()
	status := "ok"
	if routable == 0 {
		status = "unavailable"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, map[string]any{
		"status": status, "instances": len(fleet), "routable": routable,
		"fleet": fleet,
	})
}

// FaultRequest is the POST /v1/faults body: inject or clear a fault on
// one instance.
type FaultRequest struct {
	Instance int `json:"instance"`
	// Action is "crash" (fail the instance in place) or "restore"
	// (answer the crash with a cold replacement, whose ID the response
	// carries).
	Action string `json:"action"`
}

func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req FaultRequest
	if !decodeBody(w, r, &req) {
		return
	}
	id := req.Instance
	var err error
	switch req.Action {
	case "crash":
		err = s.Crash(id)
	case "restore":
		id, err = s.Restore(id)
	default:
		http.Error(w, fmt.Sprintf("unknown action %q (crash|restore)", req.Action), http.StatusBadRequest)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.lockIdle()
	h := health(s.cl.Instances()[id])
	s.mu.Unlock()
	writeJSON(w, map[string]any{"instance": id, "health": h})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("httpserve: encode response: %v", err)
	}
}

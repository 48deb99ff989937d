package httpserve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"finemoe/internal/cluster"
	"finemoe/internal/memsim"
	"finemoe/internal/moe"
	"finemoe/internal/scenarios"
	"finemoe/internal/workload"
)

// testOptions is the test testbed: Tiny-MoE on two GPUs with half the
// expert weights cached and a 100-entry Expert Map Store.
func testOptions() scenarios.Options {
	return scenarios.Options{
		Model:         moe.Tiny(),
		Seed:          1,
		GPU:           memsim.RTX3090(),
		NumGPUs:       2,
		CacheBytes:    moe.Tiny().ExpertBytes() * int64(moe.Tiny().NumExperts()) / 2,
		StoreCapacity: 100,
	}
}

// testFleet is the default test fleet: two least-loaded instances.
func testFleet() scenarios.FleetSpec {
	return scenarios.FleetSpec{Instances: 2, Router: "least-loaded"}
}

func newServer(t testing.TB, fleet scenarios.FleetSpec) *Server {
	t.Helper()
	ds := workload.LMSYSChat1M()
	ds.Topics = 6
	s, err := New(testOptions(), fleet, ds)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testServer(t testing.TB) *Server { return newServer(t, testFleet()) }

func postGenerate(t *testing.T, ts *httptest.Server, body GenerateRequest) GenerateResponse {
	t.Helper()
	buf, _ := json.Marshal(body)
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out GenerateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGenerateEndpoint(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()

	out := postGenerate(t, ts, GenerateRequest{PromptTopic: 2, InputTokens: 6, OutputTokens: 8})
	if out.TTFTms <= 0 || out.E2Ems < out.TTFTms {
		t.Fatalf("bad metrics %+v", out)
	}
	if out.Topic != 2 {
		t.Fatalf("topic %d, want 2", out.Topic)
	}
	if out.Hits+out.Misses == 0 {
		t.Fatal("no expert activity")
	}
	if out.StoreSize == 0 {
		t.Fatal("store did not grow after serving")
	}
}

func TestStoreWarmupImprovesHitRate(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()

	first := postGenerate(t, ts, GenerateRequest{PromptTopic: 1, InputTokens: 6, OutputTokens: 10})
	var last GenerateResponse
	for i := 0; i < 4; i++ {
		last = postGenerate(t, ts, GenerateRequest{PromptTopic: 1, InputTokens: 6, OutputTokens: 10})
	}
	if last.HitRate <= first.HitRate {
		t.Fatalf("hit rate did not improve with warm store: first %.3f last %.3f",
			first.HitRate, last.HitRate)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()

	postGenerate(t, ts, GenerateRequest{InputTokens: 6, OutputTokens: 6})
	postGenerate(t, ts, GenerateRequest{InputTokens: 6, OutputTokens: 6})

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Served != 2 || st.MeanTTFTms <= 0 || st.HitRate <= 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestConfigEndpoint(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/config")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cfg map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&cfg); err != nil {
		t.Fatal(err)
	}
	if cfg["model"] != "Tiny-MoE" {
		t.Fatalf("config %v", cfg)
	}
}

func TestGenerateValidation(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()

	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/generate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET generate status %d", resp.StatusCode)
	}

	// Malformed body.
	resp, err = http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status %d", resp.StatusCode)
	}

	// Out-of-range tokens.
	buf, _ := json.Marshal(GenerateRequest{InputTokens: 99999})
	resp, err = http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized request status %d", resp.StatusCode)
	}

	// Oversized body: rejected before it is read to the end.
	big := `{"prompt_topic": 1, "pad": "` + strings.Repeat("x", 8<<10) + `"}`
	resp, err = http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d, want 413", resp.StatusCode)
	}
}

func TestDefaultsApplied(t *testing.T) {
	s, err := New(scenarios.Options{Model: moe.Tiny(), Seed: 3}, scenarios.FleetSpec{}, workload.Dataset{})
	if err != nil {
		t.Fatal(err)
	}
	info := s.ConfigInfo()
	if info["store_capacity"] != 1000 {
		t.Fatalf("default store capacity %v", info["store_capacity"])
	}
	if info["instances"] != 1 || info["admission"] != "always-admit" || info["router"] != "least-loaded" {
		t.Fatalf("cluster defaults %v", info)
	}
	out, err := s.Generate(GenerateRequest{PromptTopic: -1})
	if err != nil {
		t.Fatal(err)
	}
	if out.TTFTms <= 0 {
		t.Fatal("defaults produced degenerate run")
	}
}

func TestHealthzEndpoint(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" || h["instances"] != float64(2) {
		t.Fatalf("healthz %v", h)
	}
}

func TestMultiInstanceRoutingAndStats(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()

	// Serve several requests; the least-loaded router over a 2-instance
	// fleet must touch both replicas (synchronous demo = the previous
	// request has always drained, so routing alternates on completions).
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		out := postGenerate(t, ts, GenerateRequest{PromptTopic: i % 2, InputTokens: 6, OutputTokens: 6})
		if out.Instance < 0 || out.Instance >= 2 {
			t.Fatalf("instance %d out of range", out.Instance)
		}
		seen[out.Instance] = true
	}
	if len(seen) != 2 {
		t.Fatalf("routing used instances %v, want both", seen)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Served != 4 || st.Rejected != 0 || st.Admitted != 4 {
		t.Fatalf("fleet accounting %+v", st)
	}
	if len(st.Instances) != 2 {
		t.Fatalf("stats cover %d instances, want 2", len(st.Instances))
	}
	var served int
	for _, is := range st.Instances {
		served += is.Served
		if is.HitRate < 0 || is.HitRate > 1 {
			t.Fatalf("instance %d hit rate %v", is.ID, is.HitRate)
		}
	}
	if served != 4 {
		t.Fatalf("per-instance served %d, want 4", served)
	}
	if st.Router != "least-loaded" || st.Admission != "always-admit" {
		t.Fatalf("policy names %q/%q", st.Admission, st.Router)
	}
}

// TestArrivalsStampedOnFleetClock pins the clock-mismatch fix: a request
// routed to a cold instance is stamped at the fleet clock (the admission
// timeline), not the instance's private past, so its virtual completion
// time can never precede work the fleet already finished elsewhere.
func TestArrivalsStampedOnFleetClock(t *testing.T) {
	s := testServer(t)
	first, err := s.Generate(GenerateRequest{PromptTopic: 0, InputTokens: 6, OutputTokens: 12})
	if err != nil {
		t.Fatal(err)
	}
	// The second request lands on the other (still cold, clock-at-zero)
	// instance: least-loaded ties break toward the less-routed replica.
	second, err := s.Generate(GenerateRequest{PromptTopic: 1, InputTokens: 6, OutputTokens: 6})
	if err != nil {
		t.Fatal(err)
	}
	if second.Instance == first.Instance {
		t.Fatalf("both requests on instance %d; want the cold replica", first.Instance)
	}
	if second.VirtualTime <= first.VirtualTime {
		t.Fatalf("cold instance served at virtual %.1f ms, before fleet clock %.1f ms: arrival not stamped at max(fleet, instance)",
			second.VirtualTime, first.VirtualTime)
	}
}

// TestAutoscaleGrowsOnTicks drives the queue-pressure autoscaler through
// the cluster's ticks: one request keeps the lone instance above the high
// watermark for longer than the sustain window, so a tick grows the fleet
// while the request runs, and the grown instance is routable at once.
func TestAutoscaleGrowsOnTicks(t *testing.T) {
	s := newServer(t, scenarios.FleetSpec{
		Instances: 1, Router: "least-loaded",
		Autoscale: true, MinInstances: 1, MaxInstances: 2,
		HighWatermark: 0.5, SustainMS: 1, TickMS: 1,
	})
	if _, err := s.Generate(GenerateRequest{PromptTopic: 0, InputTokens: 6, OutputTokens: 6}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if len(st.Instances) != 2 || st.Active != 2 {
		t.Fatalf("after grow: %d instances, %d active, want 2/2", len(st.Instances), st.Active)
	}
	out, err := s.Generate(GenerateRequest{PromptTopic: 0, InputTokens: 6, OutputTokens: 6})
	if err != nil {
		t.Fatal(err)
	}
	if out.Instance != 1 {
		t.Fatalf("request after grow routed to %d, want the idle new instance 1", out.Instance)
	}
	if st := s.Stats(); st.Served != 2 || st.Admitted != 2 || len(st.Instances) != 2 {
		t.Fatalf("fleet accounting after grow: %+v", st)
	}
	info := s.ConfigInfo()
	if info["autoscaler"] != "queue-pressure" || info["min_instances"] != 1 || info["max_instances"] != 2 {
		t.Fatalf("autoscaler config not exposed: %v", info)
	}
}

// TestAutoscaleShrinksOnTicks is the shrink half: one request on a
// two-instance fleet holds mean load below the low watermark, so a tick
// retires the idle, younger instance; it stays in stats as draining and
// routing continues on the survivor.
func TestAutoscaleShrinksOnTicks(t *testing.T) {
	s := newServer(t, scenarios.FleetSpec{
		Instances: 2, Router: "least-loaded",
		Autoscale: true, MinInstances: 1, MaxInstances: 2,
		HighWatermark: 4, LowWatermark: 0.9, SustainMS: 1, TickMS: 1,
	})
	if _, err := s.Generate(GenerateRequest{PromptTopic: 0, InputTokens: 6, OutputTokens: 6}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if len(st.Instances) != 2 || st.Active != 1 {
		t.Fatalf("after shrink: %d instances, %d active, want 2/1", len(st.Instances), st.Active)
	}
	if !st.Instances[1].Retired || st.Instances[0].Retired || st.Instances[1].Health != "draining" {
		t.Fatalf("wrong retiree: %+v", st.Instances)
	}
	out, err := s.Generate(GenerateRequest{PromptTopic: 0, InputTokens: 6, OutputTokens: 6})
	if err != nil {
		t.Fatal(err)
	}
	if out.Instance != 0 {
		t.Fatalf("post-shrink request routed to %d, want surviving instance 0", out.Instance)
	}
	if st := s.Stats(); st.Served != 2 || st.Admitted != 2 {
		t.Fatalf("fleet accounting after resize: %+v", st)
	}
}

// TestServerIsClusterOfferDrain pins that the server is nothing but a
// front over one cluster: requests served one at a time through Generate
// get exactly the metrics and instances that the same requests (same IDs,
// embeddings and arrival stamps) get when offered to a cluster built from
// the same spec and drained.
func TestServerIsClusterOfferDrain(t *testing.T) {
	fleet := scenarios.FleetSpec{
		Instances: 2, Router: "semantic",
		Autoscale: true, MaxInstances: 3, HighWatermark: 0.5, SustainMS: 1, TickMS: 2,
	}
	s := newServer(t, fleet)
	copts, err := scenarios.NewRunner(testOptions()).ClusterOptions(fleet, nil)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(copts)
	clock := 0.0
	for i := 0; i < 12; i++ {
		gr := GenerateRequest{PromptTopic: i % 3, InputTokens: 4 + i%5, OutputTokens: 3 + i%4}
		got, err := s.Generate(gr)
		if err != nil {
			t.Fatal(err)
		}
		req := s.request(uint64(i), gr)
		req.ArrivalMS = clock
		inst := cl.Offer(req)
		clock = cl.Drain()
		done := cl.Instances()[inst].Engine.TakeCompleted()
		if len(done) != 1 || done[0].ID != req.ID {
			t.Fatalf("request %d: cluster completions %+v", i, done)
		}
		m := done[0]
		if got.Instance != inst || got.TTFTms != m.TTFTms || got.TPOTms != m.TPOTms ||
			got.Hits != m.Hits || got.Misses != m.Misses {
			t.Fatalf("request %d: server instance=%d ttft=%v tpot=%v hits=%d misses=%d; cluster instance=%d ttft=%v tpot=%v hits=%d misses=%d",
				i, got.Instance, got.TTFTms, got.TPOTms, got.Hits, got.Misses,
				inst, m.TTFTms, m.TPOTms, m.Hits, m.Misses)
		}
	}
	if n := len(s.Stats().Instances); n != len(cl.Instances()) {
		t.Fatalf("server fleet %d instances, cluster %d", n, len(cl.Instances()))
	}
}

// TestConcurrentGenerateBatches fires concurrent requests: each is served
// exactly once, whichever batch it joins.
func TestConcurrentGenerateBatches(t *testing.T) {
	s := testServer(t)
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Generate(GenerateRequest{PromptTopic: i % 6, InputTokens: 5, OutputTokens: 4})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if st := s.Stats(); st.Served != n || st.Admitted != n || st.QueueDepth != 0 {
		t.Fatalf("accounting after concurrent burst: %+v", st)
	}
}

func TestAdmissionRejectionOver429(t *testing.T) {
	s := newServer(t, scenarios.FleetSpec{Instances: 2, Router: "least-loaded", Admission: "reject-all"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	buf, _ := json.Marshal(GenerateRequest{InputTokens: 6, OutputTokens: 6})
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rejected request status %d, want 429", resp.StatusCode)
	}

	st := s.Stats()
	if st.Rejected != 1 || st.Served != 0 {
		t.Fatalf("rejection accounting %+v", st)
	}
}

// TestFaultEndpointAndHealthStates drives the fault surface end to end:
// crash a replica over POST /v1/faults, watch /healthz and /v1/stats
// flip it to "crashed" and keep routing on the survivor; crash the
// survivor too and watch the server answer 503 everywhere; restore and
// watch a cold replacement, under a new ID, bring the fleet back.
func TestFaultEndpointAndHealthStates(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()

	postFault := func(inst int, action string) (*http.Response, map[string]any) {
		t.Helper()
		buf, _ := json.Marshal(map[string]any{"instance": inst, "action": action})
		resp, err := http.Post(ts.URL+"/v1/faults", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp, out
	}
	getHealth := func() (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h
	}

	// Crash replica 0: health flips, replica 1 keeps serving everything.
	if resp, out := postFault(0, "crash"); resp.StatusCode != http.StatusOK || out["health"] != "crashed" {
		t.Fatalf("crash response %d %v", resp.StatusCode, out)
	}
	code, h := getHealth()
	if code != http.StatusOK || h["status"] != "ok" || h["routable"] != float64(1) {
		t.Fatalf("healthz after crash: %d %v", code, h)
	}
	for i := 0; i < 4; i++ {
		if out := postGenerate(t, ts, GenerateRequest{InputTokens: 5, OutputTokens: 4}); out.Instance != 1 {
			t.Fatalf("request routed to crashed replica: %+v", out)
		}
	}
	st := getStats(t, ts)
	if st.Crashed != 1 || st.Active != 1 ||
		st.Instances[0].Health != "crashed" || st.Instances[1].Health != "healthy" {
		t.Fatalf("stats after crash: crashed=%d active=%d healths=%q,%q",
			st.Crashed, st.Active, st.Instances[0].Health, st.Instances[1].Health)
	}

	// Crash the survivor: no routable replica left, everything 503s.
	if resp, _ := postFault(1, "crash"); resp.StatusCode != http.StatusOK {
		t.Fatalf("second crash status %d", resp.StatusCode)
	}
	if code, h := getHealth(); code != http.StatusServiceUnavailable || h["status"] != "unavailable" {
		t.Fatalf("healthz with all crashed: %d %v", code, h)
	}
	buf, _ := json.Marshal(GenerateRequest{InputTokens: 5, OutputTokens: 4})
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("generate with all crashed: status %d, want 503", resp.StatusCode)
	}

	// Restore replica 0: a cold replacement joins under the next ID —
	// routable, store empty — and the crashed original stays crashed.
	resp, out := postFault(0, "restore")
	if resp.StatusCode != http.StatusOK || out["health"] != "healthy" || out["instance"] != float64(2) {
		t.Fatalf("restore response %d %v", resp.StatusCode, out)
	}
	if code, h := getHealth(); code != http.StatusOK || h["routable"] != float64(1) {
		t.Fatalf("healthz after restore: %d %v", code, h)
	}
	if st := getStats(t, ts); st.Instances[2].StoreSize != 0 || st.Instances[0].Health != "crashed" {
		t.Fatalf("restored replica kept a warm store (%d entries) or original revived (%s)",
			st.Instances[2].StoreSize, st.Instances[0].Health)
	}
	if out := postGenerate(t, ts, GenerateRequest{InputTokens: 5, OutputTokens: 4}); out.Instance != 2 {
		t.Fatalf("request not routed to restored replica: %+v", out)
	}

	// Restoring a live replica, restoring a crash twice, and bad actions
	// are rejected.
	if resp, _ := postFault(2, "restore"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("restore of live replica: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postFault(0, "restore"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("second restore of one crash: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postFault(99, "crash"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("crash of unknown replica: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postFault(0, "reboot"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown action: status %d, want 400", resp.StatusCode)
	}
}

// getStats fetches and decodes /v1/stats.
func getStats(t *testing.T, ts *httptest.Server) StatsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// testRequests keeps every workload small enough for a unit test while
// still exercising follow-ups, hedges and the fault plan.
const testRequests = 150

func TestWorkloadsCheckedAndWrappersTransparent(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			plain, err := runOnce(w, 7, testRequests, nil)
			if err != nil {
				t.Fatalf("untraced run: %v", err)
			}
			lt := &layerTrace{}
			traced, err := runOnce(w, 7, testRequests, lt)
			if err != nil {
				t.Fatalf("traced run: %v", err)
			}
			if plain.digest != traced.digest {
				t.Fatalf("wrappers changed the result: digest %s vs %s", plain.digest, traced.digest)
			}
			if plain.sim != traced.sim || plain.counts != traced.counts {
				t.Fatalf("wrappers changed the virtual-time metrics")
			}
			if len(lt.specs) != traced.offered {
				t.Fatalf("recorded %d prompts for %d offered", len(lt.specs), traced.offered)
			}
			if lt.next.calls != int64(testRequests)+1 {
				t.Errorf("source drawn %d times, want %d (one per request plus the end)", lt.next.calls, testRequests+1)
			}
			if lt.route.calls < int64(traced.admitted) {
				t.Errorf("%d route calls for %d admitted requests", lt.route.calls, traced.admitted)
			}
			if lt.startIter.calls == 0 || lt.onGate.calls == 0 || lt.endIter.calls == 0 {
				t.Errorf("policy hooks not reached: %+v %+v %+v", lt.startIter, lt.onGate, lt.endIter)
			}
			if traced.sim.servedRatio != 1 {
				t.Errorf("served ratio %v, want 1", traced.sim.servedRatio)
			}
		})
	}
}

func TestSeedChangesInputs(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			first := func(seed uint64) []float64 {
				src := w.build(seed, 5, nil).src
				var out []float64
				for q, ok := src.Next(); ok; q, ok = src.Next() {
					out = append(out, q.ArrivalMS, float64(q.InputTokens), q.Embedding[0])
				}
				return out
			}
			a, b := first(1), first(2)
			if len(a) == 0 {
				t.Fatal("source produced no requests")
			}
			if !reflect.DeepEqual(a, first(1)) {
				t.Fatal("the same seed produced different inputs")
			}
			if reflect.DeepEqual(a, b) {
				t.Fatal("seeds 1 and 2 produced identical inputs")
			}
		})
	}
}

func TestRepeatsReproduceTheFirst(t *testing.T) {
	w, err := lookupWorkload("fleet-tiny-mmpp")
	if err != nil {
		t.Fatal(err)
	}
	var s session
	for i := 0; i < 2; i++ {
		o, err := runOnce(w, 3, testRequests, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.add(o); err != nil {
			t.Fatal(err)
		}
	}
	other, err := runOnce(w, 4, testRequests, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.add(other) == nil {
		t.Fatal("a run with another seed matched the first seed's digest")
	}
}

// nameUnit is a metric entry of BENCHMARK.json.
type nameUnit struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkSpec is the part of BENCHMARK.json the output must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []nameUnit `json:"end_to_end"`
	PerLayer []nameUnit `json:"per_layer"`
}

func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var listed, have []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name+": "+w.Why)
	}
	for _, w := range workloads() {
		have = append(have, w.name+": "+w.why)
	}
	if !slices.Equal(listed, have) {
		t.Fatalf("BENCHMARK.json workloads\n%v\nbenchmark runs\n%v", listed, have)
	}
	w, err := lookupWorkload("fleet-tiny-mmpp")
	if err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[bool][]nameUnit{false: spec.EndToEnd, true: spec.PerLayer} {
		var out bytes.Buffer
		cfg := config{workload: w, seed: 2, seconds: 0.01, trace: trace, requests: 100}
		if err := execute(cfg, &out); err != nil {
			t.Fatalf("trace %v: %v", trace, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatalf("trace %v: last line is not the report: %v", trace, err)
		}
		if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
			t.Errorf("trace %v: report %+v", trace, rep)
		}
		if len(rep.Metrics) != len(want) {
			t.Errorf("trace %v: %d metrics printed, BENCHMARK.json lists %d", trace, len(rep.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := rep.Metrics[m.Name]
			if !ok {
				t.Errorf("trace %v: metric %s missing", trace, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("trace %v: metric %s unit %q, BENCHMARK.json says %q", trace, m.Name, got.Unit, m.Unit)
			}
		}
	}
}

func TestBadFlagsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "fleet-tiny-mmpp", "--trace", "2"},
		{"--workload", "fleet-tiny-mmpp", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%v: no error", args)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: printed a result", args)
		}
	}
}

package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	d := LMSYSChat1M()
	orig := AzureTrace(d, 16, TraceConfig{RatePerSec: 5, N: 12, Seed: 3})
	var buf bytes.Buffer
	if err := WriteTrace(&buf, d, 16, orig); err != nil {
		t.Fatal(err)
	}
	gotDS, got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotDS.Name != d.Name || gotDS.Topics != d.Topics {
		t.Fatalf("dataset metadata lost: %+v", gotDS)
	}
	if len(got) != len(orig) {
		t.Fatalf("length %d != %d", len(got), len(orig))
	}
	for i := range got {
		if got[i].ID != orig[i].ID || got[i].Topic != orig[i].Topic ||
			got[i].InputTokens != orig[i].InputTokens ||
			got[i].OutputTokens != orig[i].OutputTokens ||
			got[i].ArrivalMS != orig[i].ArrivalMS ||
			got[i].Seed != orig[i].Seed {
			t.Fatalf("request %d mismatch: %+v vs %+v", i, got[i], orig[i])
		}
		for j := range got[i].Embedding {
			if got[i].Embedding[j] != orig[i].Embedding[j] {
				t.Fatalf("request %d embedding mismatch", i)
			}
		}
	}
}

// TestTraceRoundTripSessionTenant: multi-turn and multi-tenant identity
// survives persistence — a replayed mix still partitions per tenant and
// keeps session threads intact.
func TestTraceRoundTripSessionTenant(t *testing.T) {
	mixed := MultiTenantTrace(16, 5, testTenants())
	sess := NewSessions(LMSYSChat1M(), 16,
		SessionConfig{MeanTurns: 2, ThinkTimeS: 1, Drift: 0.05}, 8)
	opener := sess.Initial(Poisson{RatePerSec: 4}, 1, uint64(len(mixed)+1)<<32)[0]
	opener.ArrivalMS = mixed[len(mixed)-1].ArrivalMS + 1
	mixed = append(mixed, opener)

	var buf bytes.Buffer
	if err := WriteTrace(&buf, LMSYSChat1M(), 16, mixed); err != nil {
		t.Fatal(err)
	}
	_, got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Tenant != mixed[i].Tenant || got[i].Session != mixed[i].Session ||
			got[i].Turn != mixed[i].Turn {
			t.Fatalf("session/tenant identity lost at %d: %+v vs %+v", i, got[i], mixed[i])
		}
		// Multi-tenant mixes blend datasets; each request must keep its
		// own, not be relabeled to the file's dataset.
		if got[i].Dataset != mixed[i].Dataset {
			t.Fatalf("dataset identity lost at %d: %q vs %q", i, got[i].Dataset, mixed[i].Dataset)
		}
	}
	per := SummarizeTenants(got)
	if per["steady"].N != 30 || per["bursty"].N != 20 {
		t.Fatalf("replayed tenant partition wrong: %v", per)
	}
}

func TestReadTraceRejectsCorruption(t *testing.T) {
	d := LMSYSChat1M()
	reqs := d.Sample(Options{Dim: 8, N: 3, Seed: 1})

	write := func(mutate func(*traceFile)) string {
		tf := traceFile{Version: 1, Dataset: d, Dim: 8}
		for _, q := range reqs {
			tf.Requests = append(tf.Requests, requestEntry{
				ID: q.ID, Topic: q.Topic, Embedding: q.Embedding,
				InputTokens: q.InputTokens, OutputTokens: q.OutputTokens, Seed: q.Seed,
			})
		}
		mutate(&tf)
		// Encoded directly: WriteTrace would reject most mutations.
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(tf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	cases := map[string]string{
		"bad version": write(func(tf *traceFile) { tf.Version = 9 }),
		"bad dim":     write(func(tf *traceFile) { tf.Dim = 0 }),
		"dup id":      write(func(tf *traceFile) { tf.Requests[1].ID = tf.Requests[0].ID }),
		"zero tokens": write(func(tf *traceFile) { tf.Requests[0].InputTokens = 0 }),
		"dim mismatch": write(func(tf *traceFile) {
			tf.Requests[0].Embedding = tf.Requests[0].Embedding[:4]
		}),
		"arrival backwards": write(func(tf *traceFile) {
			tf.Requests[0].ArrivalMS = 10
			tf.Requests[1].ArrivalMS = 5
		}),
		"not json": "{",
	}
	for name, payload := range cases {
		if _, _, err := ReadTrace(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
}

func TestReadTraceReplayable(t *testing.T) {
	// A round-tripped trace must simulate identically to the original.
	d := ShareGPT()
	orig := d.Sample(Options{Dim: 16, N: 2, Seed: 9})
	for i := range orig {
		orig[i].InputTokens, orig[i].OutputTokens = 4, 3
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, d, 16, orig); err != nil {
		t.Fatal(err)
	}
	_, got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].PromptSpec.Seed != orig[0].PromptSpec.Seed {
		t.Fatal("prompt seeds differ; replay would diverge")
	}
}

// TestWriteTraceRejectsWhatReadTraceRejects: WriteTrace refuses a file
// ReadTrace would refuse (a non-positive dim, or an embedding whose
// length is not dim) instead of writing it.
func TestWriteTraceRejectsWhatReadTraceRejects(t *testing.T) {
	d := LMSYSChat1M()
	reqs := d.Sample(Options{Dim: 16, N: 2, Seed: 1})
	for _, tc := range []struct {
		name    string
		dim     int
		reqs    []Request
		wantErr bool
	}{
		{"matching dim", 16, reqs, false},
		{"empty trace", 16, nil, false},
		{"zero dim", 0, nil, true},
		{"negative dim", -1, reqs, true},
		{"dim larger than embeddings", 64, reqs, true},
		{"dim smaller than embeddings", 8, reqs, true},
	} {
		var buf bytes.Buffer
		err := WriteTrace(&buf, d, tc.dim, tc.reqs)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: WriteTrace error %v, want error %v", tc.name, err, tc.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if _, got, err := ReadTrace(&buf); err != nil || len(got) != len(tc.reqs) {
			t.Errorf("%s: written trace reads back as %d requests, %v", tc.name, len(got), err)
		}
	}
}

// TestReadTraceAllocBounded: a trace's decoded size is bounded by its
// file size. A high-dim trace with a single request must not allocate
// more than a small multiple of its input (rows used to be carved from
// 1024-row blocks, a ×4000 amplification at dim 20000).
func TestReadTraceAllocBounded(t *testing.T) {
	const dim = 20000
	var b strings.Builder
	fmt.Fprintf(&b, `{"version":1,"dataset":{"name":"d"},"dim":%d,"requests":[{"id":1,"input_tokens":1,"output_tokens":1,"embedding":[0`, dim)
	b.WriteString(strings.Repeat(",0", dim-1))
	b.WriteString("]}]}")
	input := b.String()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, got, err := ReadTrace(strings.NewReader(input))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Embedding) != dim {
		t.Fatalf("decoded %d requests", len(got))
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d-byte trace allocated %d bytes", len(input), alloc)
	if limit := 64 * uint64(len(input)); alloc > limit {
		t.Errorf("%d-byte trace allocated %d bytes, limit %d", len(input), alloc, limit)
	}
}

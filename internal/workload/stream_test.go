package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// streamShapes are the arrival processes the golden tests sweep.
func streamShapes() map[string]ArrivalProcess {
	return map[string]ArrivalProcess{
		"poisson": Poisson{RatePerSec: 4},
		"mmpp":    BurstyMMPP(4),
		"diurnal": DiurnalSwing(4),
		"flash":   FlashSpike(4),
		"abusive": AbusiveBurstLoop(4),
	}
}

// TestArrivalStreamGolden pins every shape's generator bytes: SHA-256 of
// the float64 bits of its first 500 arrivals at seed 77.
func TestArrivalStreamGolden(t *testing.T) {
	want := map[string]string{
		"poisson": "03ab471f08ce81c76fa6067def5cfa15f56e1fe377410f7a5e0adb5406c876fe",
		"mmpp":    "a4529b12a5df349c2d7cdbb18d6343d293efaac585de6a61a6af9d64f2e356d2",
		"diurnal": "33e73ec1566b51a9846bfaaabdf56917414191045655d6fdbf0bba1df6d0bf43",
		"flash":   "bab145a47ab2265329a81fa9598a3950f581ed79c1f1230145b9d54e977533cb",
		"abusive": "3524d5f8654db5fca5718d6e43a3104327abf9da45c0ea86324546d5a53728d1",
	}
	for name, p := range streamShapes() {
		var buf []byte
		for _, x := range arrivalTimes(p, 500, 77) {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
		sum := sha256.Sum256(buf)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: arrival digest %s, want %s", name, got, want[name])
		}
	}
}

// traceDigest is the SHA-256 of a trace's JSON encoding, which carries
// every field, embeddings included, at full float64 precision.
func traceDigest(t *testing.T, reqs []Request) string {
	t.Helper()
	b, err := json.Marshal(reqs)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkTraceGolden fails unless both the streamed and the materialized
// trace hash to want. The goldens were computed when the two were still
// separate generators and agreed byte for byte.
func checkTraceGolden(t *testing.T, name string, streamed Source, materialized []Request, want string) {
	t.Helper()
	if got := traceDigest(t, Collect(streamed)); got != want {
		t.Errorf("%s: streamed trace digest %s, want %s", name, got, want)
	}
	if got := traceDigest(t, materialized); got != want {
		t.Errorf("%s: materialized trace digest %s, want %s", name, got, want)
	}
}

// TestStreamOnlineMatchesOnlineTrace pins StreamOnline and OnlineTrace
// for every arrival shape.
func TestStreamOnlineMatchesOnlineTrace(t *testing.T) {
	d := LMSYSChat1M()
	want := map[string]string{
		"poisson": "35cdab289d2467c933a96dd5e6dba308e710479e10eb8fd8ac21c61e776f41c2",
		"mmpp":    "f5226bcae1580afc2949531b9cbd2fe9378463b69b016a30d7fee08a37f379e9",
		"diurnal": "bcd0a530f38414fa2ba699269931545931d8434c7af4fded5361df997cf9ae86",
		"flash":   "a7d8e289c8049933543e83bdabc516b59d497ca5fea7a41b8fa24edc3e5902b0",
		"abusive": "2bce44490107308d6ea6963750fc9ba4870596905c9b327161d39b3c97c77ad6",
	}
	for name, p := range streamShapes() {
		opt := OnlineOptions{Arrivals: p, N: 200, Seed: 9, Tenant: "t0"}
		checkTraceGolden(t, name, StreamOnline(d, 16, opt), OnlineTrace(d, 16, opt), want[name])
	}
}

func TestStreamAzureTraceMatches(t *testing.T) {
	d := ShareGPT()
	tc := TraceConfig{RatePerSec: 2.91, N: 128, Seed: 3}
	checkTraceGolden(t, "azure", StreamAzureTrace(d, 16, tc), AzureTrace(d, 16, tc),
		"974800870cea3ea49c6ad8c2dff45f62428c326f44ca2af533a409200900bfda")
}

func TestStreamInitialMatchesSessions(t *testing.T) {
	newSess := func() *Sessions {
		return NewSessions(LMSYSChat1M(), 16, SessionConfig{MeanTurns: 3, Drift: 0.05}, 21)
	}
	checkTraceGolden(t, "session-openers",
		newSess().StreamInitial(Poisson{RatePerSec: 4}, 100, 0),
		newSess().Initial(Poisson{RatePerSec: 4}, 100, 0),
		"bc7d762804a2d5e114ba33a1137e1f2cc0c79769acc41d789822b2d86fd7d11e")
}

func TestStreamMultiTenantMatches(t *testing.T) {
	tenants := []TenantSpec{
		{Name: "lmsys", Dataset: LMSYSChat1M(), Arrivals: Poisson{RatePerSec: 4}, N: 80},
		{Name: "sharegpt", Dataset: ShareGPT(), Arrivals: BurstyMMPP(6), N: 60},
		AdversarialTenant("abuser", 3, 40, 5),
	}
	checkTraceGolden(t, "multi-tenant", StreamMultiTenant(16, 13, tenants), MultiTenantTrace(16, 13, tenants),
		"bd6fbd2b2682422c03174bbe6c9e234a7f80bde3a80b0f6a0b2fe695398c35e3")
}

func TestSliceSourceRoundTrip(t *testing.T) {
	trace := AzureTrace(LMSYSChat1M(), 8, TraceConfig{RatePerSec: 4, N: 32, Seed: 1})
	got := Collect(NewSliceSource(trace))
	if !reflect.DeepEqual(got, trace) {
		t.Fatal("SliceSource does not replay its slice")
	}
	// Exhausted sources stay exhausted.
	src := NewSliceSource(trace)
	Collect(src)
	if _, ok := src.Next(); ok {
		t.Fatal("exhausted SliceSource yielded a request")
	}
}

// TestArenaRowCapped verifies arena rows are full-slice-capped: appending
// through one row must reallocate, never clobber the next row.
func TestArenaRowCapped(t *testing.T) {
	a := NewArena(4)
	r1, r2 := a.Row(), a.Row()
	if cap(r1) != 4 || cap(r2) != 4 {
		t.Fatalf("arena rows not capped at dim: caps %d, %d", cap(r1), cap(r2))
	}
	r2[0] = 7
	_ = append(r1, 99)
	if r2[0] != 7 {
		t.Fatal("append through row 1 clobbered row 2")
	}
}

// TestReadTraceArenaBacked is the persistence regression test: a
// round-tripped trace must be value-identical to the original, and the
// returned embeddings must have the arena layout (dim-capped rows) rather
// than keeping the decoder's oversized per-request slices alive.
func TestReadTraceArenaBacked(t *testing.T) {
	d := LMSYSChat1M()
	orig := Collect(StreamOnline(d, 8, OnlineOptions{
		Arrivals: BurstyMMPP(4), N: 50, Seed: 17, Tenant: "t",
	}))
	var buf bytes.Buffer
	if err := WriteTrace(&buf, d, 8, orig); err != nil {
		t.Fatal(err)
	}
	gotD, got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotD.Name != d.Name {
		t.Fatalf("dataset name %q != %q", gotD.Name, d.Name)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Fatal("round-tripped trace diverges from original")
	}
	for i, q := range got {
		if cap(q.Embedding) != 8 {
			t.Fatalf("request %d: embedding cap %d, want arena row cap 8", i, cap(q.Embedding))
		}
	}
}

package httpserve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// fuzzStatuses are the only answers a POST body may get.
var fuzzStatuses = map[int]bool{
	http.StatusOK:                    true,
	http.StatusBadRequest:            true,
	http.StatusRequestEntityTooLarge: true,
	http.StatusTooManyRequests:       true,
	http.StatusServiceUnavailable:    true,
}

// post sends body to path on a fresh recorder and returns the answer.
func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// FuzzGenerateBody feeds arbitrary bodies to /v1/generate on a fresh
// Tiny-MoE two-instance server: no panic, only the documented statuses,
// and every 200 carries a finite, non-negative TTFT and TPOT.
func FuzzGenerateBody(f *testing.F) {
	for _, seed := range []string{
		`{"prompt_topic": 2, "input_tokens": 8, "output_tokens": 8}`,
		`{"prompt_topic": -1}`,
		`{"input_tokens": 2048, "output_tokens": 1}`,
		`{"input_tokens": 99999}`,
		`{"prompt_topic": 1e3}`,
		`{`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := post(testServer(t).Handler(), "/v1/generate", body)
		if !fuzzStatuses[rec.Code] {
			t.Fatalf("status %d for %q", rec.Code, body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		var out GenerateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("200 with undecodable body %q: %v", rec.Body.Bytes(), err)
		}
		for name, v := range map[string]float64{"ttft": out.TTFTms, "tpot": out.TPOTms} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("%s = %v for %q", name, v, body)
			}
		}
	})
}

// FuzzFaultsBody feeds arbitrary bodies to /v1/faults on a fresh
// Tiny-MoE two-instance server whose instance 0 is already crashed (so
// restore is reachable): no panic, only the documented statuses, and the
// server still answers a generate request afterwards.
func FuzzFaultsBody(f *testing.F) {
	for _, seed := range []string{
		`{"instance": 0, "action": "restore"}`,
		`{"instance": 1, "action": "crash"}`,
		`{"instance": 99, "action": "crash"}`,
		`{"instance": -1, "action": "restore"}`,
		`{"instance": 0, "action": "reboot"}`,
		`{"instance": 1}`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := testServer(t)
		if err := s.Crash(0); err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		if rec := post(h, "/v1/faults", body); !fuzzStatuses[rec.Code] {
			t.Fatalf("status %d for %q", rec.Code, body)
		}
		if rec := post(h, "/v1/generate", []byte(`{"input_tokens": 4, "output_tokens": 4}`)); !fuzzStatuses[rec.Code] {
			t.Fatalf("generate after %q: status %d", body, rec.Code)
		}
	})
}

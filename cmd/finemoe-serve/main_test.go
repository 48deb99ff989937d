package main

import (
	"testing"

	"finemoe/internal/moe"
)

// TestCacheBytes pins -cache-gb's one resolution, shared by the live
// server and -replay: a positive budget in GiB, else 30% of the model's
// expert weights.
func TestCacheBytes(t *testing.T) {
	tiny, mixtral := moe.Tiny(), moe.Mixtral8x7B()
	for _, tc := range []struct {
		name string
		gb   float64
		cfg  moe.Config
		want int64
	}{
		{"zero is 30% of tiny's experts", 0, tiny, int64(float64(tiny.TotalExpertBytes()) * 0.3)},
		{"zero is 30% of mixtral's experts", 0, mixtral, int64(float64(mixtral.TotalExpertBytes()) * 0.3)},
		{"negative falls back to 30%", -1, tiny, int64(float64(tiny.TotalExpertBytes()) * 0.3)},
		{"one GiB", 1, mixtral, 1 << 30},
		{"fractional GiB", 0.5, tiny, 1 << 29},
		{"budget beyond the experts is kept", 1000, tiny, 1000 << 30},
	} {
		if got := cacheBytes(tc.gb, tc.cfg); got != tc.want {
			t.Errorf("%s: cacheBytes(%v) = %d, want %d", tc.name, tc.gb, got, tc.want)
		}
	}
}

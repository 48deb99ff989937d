package main

import (
	"math"
	"testing"
)

// TestCheckFlags: numbers the generators would panic on are usage errors.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n, dim  int
		online  bool
		rate    float64
		wantErr bool
	}{
		{"defaults", 256, 64, false, 2.91, false},
		{"online defaults", 256, 64, true, 2.91, false},
		{"empty population", 0, 64, true, 2.91, false},
		{"rate ignored offline", 256, 64, false, math.NaN(), false},
		{"negative n", -3, 64, false, 2.91, true},
		{"zero dim", 256, 0, false, 2.91, true},
		{"negative dim", 256, -1, false, 2.91, true},
		{"NaN rate", 256, 64, true, math.NaN(), true},
		{"zero rate", 256, 64, true, 0, true},
		{"negative rate", 256, 64, true, -1, true},
		{"infinite rate", 256, 64, true, math.Inf(1), true},
	} {
		if err := checkFlags(tc.n, tc.dim, tc.online, tc.rate); (err != nil) != tc.wantErr {
			t.Errorf("%s: checkFlags error %v, want error %v", tc.name, err, tc.wantErr)
		}
	}
}

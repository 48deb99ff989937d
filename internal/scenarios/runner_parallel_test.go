package scenarios

import (
	"strings"
	"testing"

	"finemoe/internal/moe"
	"finemoe/internal/workload"
)

// parallelMatrix is a small but heterogeneous gauntlet: plain, bursty,
// session, tenant, and autoscaled cells, so the worker pool crosses every
// workload shape and fleet path.
func parallelMatrix() []Scenario {
	return []Scenario{
		{Name: "plain", Workload: WorkloadSpec{
			Dataset:  testDataset(),
			Arrivals: workload.Poisson{RatePerSec: 10}, Requests: 10},
			Fleet: FleetSpec{Instances: 2, Router: "round-robin"}},
		{Name: "bursty", Workload: WorkloadSpec{
			Dataset:  testDataset(),
			Arrivals: workload.BurstyMMPP(12), Requests: 12},
			Fleet: FleetSpec{Instances: 1, Autoscale: true, MaxInstances: 3,
				SustainMS: 20, CooldownMS: 20, TickMS: 10}},
		{Name: "sess", Workload: WorkloadSpec{
			Dataset:  testDataset(),
			Arrivals: workload.Poisson{RatePerSec: 8}, Requests: 8,
			Sessions: &workload.SessionConfig{MeanTurns: 2, ThinkTimeS: 0.1, Drift: 0.05}},
			Fleet: FleetSpec{Instances: 2}},
		{Name: "tenants", Workload: WorkloadSpec{
			Tenants: []workload.TenantSpec{
				{Name: "a", Dataset: testDataset(),
					Arrivals: workload.Poisson{RatePerSec: 6}, N: 6},
				{Name: "b", Dataset: workload.ShareGPT(),
					Arrivals: workload.FlashSpike(6), N: 6},
			}},
			Fleet: FleetSpec{Instances: 2, Router: "least-loaded"}},
		{Name: "affinity", Workload: WorkloadSpec{
			Dataset:  testDataset(),
			Arrivals: workload.DiurnalSwing(10), Requests: 10},
			Fleet: FleetSpec{Instances: 2, Router: "semantic-affinity"}},
	}
}

func serializeAll(t *testing.T, reps []*Report) string {
	t.Helper()
	var b strings.Builder
	for _, rep := range reps {
		b.WriteString(rep.Serialize())
		b.WriteString("---\n")
	}
	return b.String()
}

// TestRunMatrixParallelMatchesSerial is the parallel runner's determinism
// contract: for every worker count, RunMatrix must return byte-identical
// reports in matrix order — equal to the Workers=1 serial sweep. This
// test is deliberately not short-skipped so the CI race job exercises the
// worker pool under the race detector.
func TestRunMatrixParallelMatchesSerial(t *testing.T) {
	matrix := parallelMatrix()
	runner := func(workers int) *Runner {
		return NewRunner(Options{
			Model: moe.Tiny(), NumGPUs: 2, StoreCapacity: 100,
			MaxInput: 8, MaxOutput: 8, Seed: 5,
			Workers: workers,
		})
	}
	serialReps, err := runner(1).RunMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	serial := serializeAll(t, serialReps)
	for _, workers := range []int{0, 2, 3, 16} {
		reps, err := runner(workers).RunMatrix(matrix)
		if err != nil {
			t.Fatal(err)
		}
		if got := serializeAll(t, reps); got != serial {
			t.Fatalf("workers=%d diverged from serial:\n%s\nvs\n%s", workers, got, serial)
		}
	}
}

// TestRunMatrixParallelError: a failing cell surfaces the same error the
// serial sweep would hit first (the lowest matrix index), and no partial
// results leak.
func TestRunMatrixParallelError(t *testing.T) {
	matrix := parallelMatrix()
	matrix[1] = Scenario{Name: "broken", Workload: WorkloadSpec{
		Dataset: testDataset(), Arrivals: workload.Poisson{RatePerSec: 1}, Requests: 1}}
	matrix[3] = Scenario{Name: "also-broken", Workload: WorkloadSpec{
		Dataset: testDataset(), Requests: 1}, Fleet: FleetSpec{Instances: 1}}
	r := NewRunner(Options{
		Model: moe.Tiny(), NumGPUs: 2, StoreCapacity: 100,
		MaxInput: 8, MaxOutput: 8, Seed: 5, Workers: 4,
	})
	reps, err := r.RunMatrix(matrix)
	if err == nil {
		t.Fatal("broken matrix did not error")
	}
	if reps != nil {
		t.Fatal("error run returned partial reports")
	}
	if !strings.Contains(err.Error(), "broken") || strings.Contains(err.Error(), "also-broken") {
		t.Fatalf("expected the lowest-index error (scenario %q), got: %v", "broken", err)
	}
}

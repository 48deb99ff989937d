package cluster

import (
	"encoding/json"
	"testing"

	"finemoe/internal/moe"
	"finemoe/internal/serve"
	"finemoe/internal/workload"
)

// streamVariant is one cell family of the streaming parity matrix: a
// fleet configuration plus the same workload in materialized and
// streaming form. Every builder is a pure function so repeated builds
// are byte-comparable.
type streamVariant struct {
	name    string
	cluster func() *Cluster
	trace   func() []workload.Request
	source  func() workload.Source
}

func streamDataset(seed uint64) workload.Dataset {
	return workload.Dataset{
		Name: "stream-test", Topics: 5, TopicSpread: 0.05,
		MeanInput: 5, MeanOutput: 4, LenSigma: 0.3, Seed: seed,
	}
}

func streamVariants() []streamVariant {
	var out []streamVariant

	// One variant per arrival process on a plain least-loaded fleet.
	shapes := []struct {
		name string
		ap   workload.ArrivalProcess
	}{
		{"poisson", workload.Poisson{RatePerSec: 60}},
		{"mmpp", workload.BurstyMMPP(60)},
		{"diurnal", workload.DiurnalSwing(60)},
		{"flash", workload.FlashSpike(60)},
	}
	for _, sh := range shapes {
		d := streamDataset(31)
		opt := workload.OnlineOptions{Arrivals: sh.ap, N: 48, Seed: 5}
		out = append(out, streamVariant{
			name: sh.name,
			cluster: func() *Cluster {
				m := moe.NewModel(moe.Tiny(), 11)
				return New(Options{
					Engines: testEngines(m, 4),
					Router:  NewLeastLoaded(),
				})
			},
			trace:  func() []workload.Request { return workload.OnlineTrace(d, moe.Tiny().SemDim, opt) },
			source: func() workload.Source { return workload.StreamOnline(d, moe.Tiny().SemDim, opt) },
		})
	}

	// Closed-loop multi-turn sessions: streamed openers, follow-ups
	// injected through the hook on both paths.
	sessVariant := func(name string, seed uint64, plan bool) streamVariant {
		d := streamDataset(12)
		mkSess := func() *workload.Sessions {
			return workload.NewSessions(d, moe.Tiny().SemDim,
				workload.SessionConfig{MeanTurns: 3, ThinkTimeS: 0.02, Drift: 0.03}, seed)
		}
		return streamVariant{
			name: name,
			cluster: func() *Cluster {
				m := moe.NewModel(moe.Tiny(), 7)
				sess := mkSess()
				opts := Options{
					Engines: testEngines(m, 4),
					Router:  NewLeastLoaded(),
					FollowUp: func(done serve.RequestMetrics, orig workload.Request) (workload.Request, bool) {
						return sess.FollowUp(orig, done.EndMS)
					},
					EngineFactory: func(id int) *serve.Engine { return testEngines(m, 1)[0] },
				}
				if plan {
					opts.FaultPlan = gauntletPlan()
					opts.Resilience = fullResilience()
				}
				return New(opts)
			},
			trace: func() []workload.Request {
				return mkSess().Initial(workload.BurstyMMPP(60), 24, 0)
			},
			source: func() workload.Source {
				return mkSess().StreamInitial(workload.BurstyMMPP(60), 24, 0)
			},
		}
	}
	out = append(out, sessVariant("sessions", 3, false))

	// Multi-tenant mix, including the adversarial tenant.
	tenants := []workload.TenantSpec{
		{Name: "a", Dataset: streamDataset(21), Arrivals: workload.Poisson{RatePerSec: 40}, N: 20},
		{Name: "b", Dataset: streamDataset(22), Arrivals: workload.BurstyMMPP(50), N: 16},
		workload.AdversarialTenant("abuser", 20, 12, 9),
	}
	out = append(out, streamVariant{
		name: "tenants",
		cluster: func() *Cluster {
			m := moe.NewModel(moe.Tiny(), 13)
			return New(Options{
				Engines:   testEngines(m, 4),
				Admission: NewTokenBucket(24, 45),
				Router:    NewRoundRobin(),
			})
		},
		trace: func() []workload.Request {
			return workload.MultiTenantTrace(moe.Tiny().SemDim, 17, tenants)
		},
		source: func() workload.Source {
			return workload.StreamMultiTenant(moe.Tiny().SemDim, 17, tenants)
		},
	})

	// Fault plan + full resilience over a streamed trace.
	out = append(out, streamVariant{
		name: "faults",
		cluster: func() *Cluster {
			c, _ := faultCluster(fullResilience())
			return c
		},
		trace: func() []workload.Request {
			_, trace := faultCluster(fullResilience())
			return trace
		},
		source: func() workload.Source {
			_, trace := faultCluster(fullResilience())
			return workload.NewSliceSource(trace)
		},
	})

	// Everything at once: sessions + fault plan + resilience + growth.
	out = append(out, sessVariant("combo", 19, true))

	// Staging-heavy three-tier fleet: most fetches cross the shared
	// staging link.
	stagedTrace := func() []workload.Request { return testTrace(moe.Tiny(), 40, 50, 21) }
	out = append(out, streamVariant{
		name: "staged",
		cluster: func() *Cluster {
			m := moe.NewModel(moe.Tiny(), 19)
			return New(Options{Engines: stagedEngines(m, 4), Router: NewRoundRobin()})
		},
		trace:  stagedTrace,
		source: func() workload.Source { return workload.NewSliceSource(stagedTrace()) },
	})

	// Staged memory + semantic-affinity routing + queue-pressure
	// autoscaling + closed-loop sessions over bursty openers.
	comboSess := func() *workload.Sessions {
		d := workload.Dataset{
			Name: "staged-combo", Topics: 4, TopicSpread: 0.05,
			MeanInput: 5, MeanOutput: 4, LenSigma: 0.3, Seed: 8,
		}
		return workload.NewSessions(d, moe.Tiny().SemDim,
			workload.SessionConfig{MeanTurns: 2.5, ThinkTimeS: 0.03, Drift: 0.05}, 7)
	}
	out = append(out, streamVariant{
		name: "staged-combo",
		cluster: func() *Cluster {
			m := moe.NewModel(moe.Tiny(), 29)
			sess := comboSess()
			return New(Options{
				Engines: stagedEngines(m, 2),
				Router:  NewSemanticAffinity(SemanticAffinityOptions{}),
				Autoscaler: NewQueuePressure(QueuePressureOptions{
					HighWatermark: 2, LowWatermark: 0.5, SustainMS: 20, CooldownMS: 40,
				}),
				EngineFactory:       func(id int) *serve.Engine { return stagedEngines(m, 1)[0] },
				MinInstances:        1,
				MaxInstances:        5,
				AutoscaleIntervalMS: 30,
				FollowUp: func(done serve.RequestMetrics, orig workload.Request) (workload.Request, bool) {
					return sess.FollowUp(orig, done.EndMS)
				},
			})
		},
		trace: func() []workload.Request {
			return comboSess().Initial(workload.BurstyMMPP(60), 18, 0)
		},
		source: func() workload.Source {
			return comboSess().StreamInitial(workload.BurstyMMPP(60), 18, 0)
		},
	})

	return out
}

// runStreamBytes runs one cell, checks that the drained fleet's
// next-event heap agrees with a full scan, and returns the JSON-encoded
// result.
func runStreamBytes(t *testing.T, c *Cluster, run func(c *Cluster) *Result) []byte {
	t.Helper()
	res := run(c)
	checkHeapAgainstScan(t, c)
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if res.Served == 0 {
		t.Fatal("degenerate cell served nothing")
	}
	return b
}

// TestRunStreamByteParity is the streaming tentpole's contract: for every
// workload shape (all four arrival processes, closed-loop sessions,
// multi-tenant mixes, fault plans with resilience, staging-heavy fleets,
// autoscaling, and their combinations), RunStream over the generator
// source produces a ClusterResult byte-identical to RunTrace over the
// materialized trace.
func TestRunStreamByteParity(t *testing.T) {
	for _, v := range streamVariants() {
		t.Run(v.name, func(t *testing.T) {
			want := runStreamBytes(t, v.cluster(), func(c *Cluster) *Result {
				return c.RunTrace(v.trace())
			})
			got := runStreamBytes(t, v.cluster(), func(c *Cluster) *Result {
				return c.RunStream(v.source())
			})
			if string(got) != string(want) {
				t.Fatalf("streaming run diverges from materialized run (%d vs %d bytes)",
					len(got), len(want))
			}
		})
	}
}

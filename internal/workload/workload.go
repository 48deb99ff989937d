// Package workload generates the request workloads the paper evaluates on:
// topic-clustered prompt populations standing in for LMSYS-Chat-1M and
// ShareGPT, 70/30 store/test splits (§6.1), and Azure-style online inference
// traces with Poisson arrivals at the paper's 2.91 requests/second (§6.3).
//
// Real prompt text is irrelevant to the offloading system — only the
// semantic embedding, the token counts, and the arrival time matter — so a
// workload is a population of latent topic vectors with realistic length
// marginals.
package workload

import (
	"fmt"
	"math"

	"finemoe/internal/moe"
	"finemoe/internal/rng"
)

// Request is one serving request: a simulatable prompt plus workload
// metadata.
type Request struct {
	moe.PromptSpec
	// Topic is the latent topic cluster the prompt was drawn from.
	Topic int
	// ArrivalMS is the request arrival time for online serving
	// (0 for offline workloads).
	ArrivalMS float64
	// Dataset names the generating dataset.
	Dataset string
	// Session identifies the multi-turn conversation the request belongs
	// to (0 = standalone), and Turn its zero-based position in it.
	Session uint64
	Turn    int
	// Tenant names the generating tenant in multi-tenant mixes
	// ("" = untagged).
	Tenant string
}

// Dataset describes a prompt population.
type Dataset struct {
	// Name identifies the dataset in reports.
	Name string
	// Topics is the number of latent topic clusters.
	Topics int
	// TopicZipf shapes topic popularity (0 = uniform; larger = more
	// skewed toward popular conversation topics).
	TopicZipf float64
	// TopicSpread is the within-topic embedding noise: how far prompts
	// of one topic scatter around the topic direction.
	TopicSpread float64
	// MeanInput and MeanOutput are the mean prompt/generation lengths in
	// tokens. The paper's §6.2 measures LMSYS at 37/127 and ShareGPT at
	// 43/122.
	MeanInput, MeanOutput int
	// LenSigma is the log-normal shape of sampled lengths when lengths
	// are not fixed.
	LenSigma float64
	// Seed namespaces the dataset's topic directions and sampling.
	Seed uint64
}

// LMSYSChat1M returns the synthetic stand-in for LMSYS-Chat-1M.
func LMSYSChat1M() Dataset {
	return Dataset{
		Name:        "LMSYS-Chat-1M",
		Topics:      24,
		TopicZipf:   1.2,
		TopicSpread: 0.05,
		MeanInput:   37,
		MeanOutput:  127,
		LenSigma:    0.6,
		Seed:        0x15f5,
	}
}

// ShareGPT returns the synthetic stand-in for ShareGPT.
func ShareGPT() Dataset {
	return Dataset{
		Name:        "ShareGPT",
		Topics:      20,
		TopicZipf:   1.2,
		TopicSpread: 0.07,
		MeanInput:   43,
		MeanOutput:  122,
		LenSigma:    0.6,
		Seed:        0x5269,
	}
}

// PaperDatasets returns the two datasets used throughout the evaluation.
func PaperDatasets() []Dataset { return []Dataset{LMSYSChat1M(), ShareGPT()} }

// topicSalt namespaces topic-direction derivation within a dataset's seed.
const topicSalt uint64 = 0x701c

// TopicDirection returns the unit embedding direction of a topic cluster in
// the given semantic dimensionality. Deterministic per (dataset, topic).
func (d Dataset) TopicDirection(dim, topic int) []float64 {
	return rng.UnitVecFor(dim, d.Seed, topicSalt, uint64(topic))
}

// sampleTopic draws a topic index with Zipf-shaped popularity.
func (d Dataset) sampleTopic(r *rng.RNG) int {
	if d.TopicZipf <= 0 {
		return r.Intn(d.Topics)
	}
	// Inverse-CDF sampling over unnormalized weights 1/(k+1)^z using a
	// precomputable total would be nicer; with a few hundred topics a
	// linear walk is fine and allocation-free.
	z := d.TopicZipf
	var total float64
	for k := 0; k < d.Topics; k++ {
		total += math.Pow(float64(k+1), -z)
	}
	u := r.Float64() * total
	var cum float64
	for k := 0; k < d.Topics; k++ {
		cum += math.Pow(float64(k+1), -z)
		if u <= cum {
			return k
		}
	}
	return d.Topics - 1
}

// sampleLen draws a log-normal length with the configured mean, clamped to
// [minLen, maxLen].
func sampleLen(r *rng.RNG, mean int, sigma float64, minLen, maxLen int) int {
	if sigma <= 0 {
		return mean
	}
	mu := math.Log(float64(mean)) - sigma*sigma/2
	v := int(math.Round(r.LogNormal(mu, sigma)))
	if v < minLen {
		v = minLen
	}
	if v > maxLen {
		v = maxLen
	}
	return v
}

// Options controls sampling.
type Options struct {
	// Dim is the semantic embedding dimensionality (the model's SemDim).
	Dim int
	// N is the number of requests.
	N int
	// Seed drives sampling; distinct seeds give disjoint populations.
	Seed uint64
	// FixedLengths pins every request to the dataset's mean input/output
	// lengths, as the paper's offline evaluation does (§6.2).
	FixedLengths bool
	// IDBase offsets request IDs so multiple samples can coexist.
	IDBase uint64
}

// Sample draws n requests from the dataset population. Embeddings are
// rows of a shared arena (one block per arenaRows requests) rather than
// individual allocations; the values are byte-identical to per-request
// allocation, and the drawing loop is the same sampler the streaming
// generators use (stream.go), so Sample and StreamOnline cannot drift.
func (d Dataset) Sample(opt Options) []Request {
	if opt.Dim <= 0 || opt.N < 0 {
		panic(fmt.Sprintf("workload: invalid options %+v", opt))
	}
	s := newSampler(d, opt)
	out := make([]Request, opt.N)
	for i := range out {
		out[i] = s.next(opt.IDBase + uint64(i))
	}
	return out
}

// Split partitions requests into a store-building set and a test set using
// the paper's standard ratio (§6.1: 70% of prompts populate the Expert Map
// Store, 30% are served).
func Split(reqs []Request, storeFrac float64) (store, test []Request) {
	if storeFrac < 0 || storeFrac > 1 {
		panic("workload: storeFrac out of [0,1]")
	}
	cut := int(math.Round(float64(len(reqs)) * storeFrac))
	// Full slice expressions cap both halves at their own length: a plain
	// reqs[:cut] shares spare capacity with the test half, so appending to
	// store would silently clobber test's first elements.
	return reqs[:cut:cut], reqs[cut:len(reqs):len(reqs)]
}

// TraceConfig parameterizes an Azure-style online trace (§6.3).
type TraceConfig struct {
	// RatePerSec is the mean request arrival rate (paper: 2.91).
	RatePerSec float64
	// N is the number of requests (paper: 256).
	N int
	// Seed drives arrival sampling.
	Seed uint64
	// IDBase offsets request IDs (0 = the 1<<32 default), letting callers
	// concatenate traces without ID collisions.
	IDBase uint64
}

// AzureTrace samples an online trace: dataset prompts with exponential
// inter-arrival gaps (Poisson process) and trace-specified token lengths.
// It is the materialized form of StreamAzureTrace.
func AzureTrace(d Dataset, dim int, tc TraceConfig) []Request {
	return Collect(StreamAzureTrace(d, dim, tc))
}

// Stats summarizes a request population.
type Stats struct {
	N                    int
	MeanInput, MeanOut   float64
	Topics               int
	DurationMS, RateRPS  float64
	MinInput, MaxInput   int
	MinOutput, MaxOutput int
	// Sessions counts distinct multi-turn sessions (requests with
	// Session != 0); Tenants counts distinct named tenants.
	Sessions, Tenants int
}

// Summarize computes population statistics, useful for trace inspection and
// for validating generated workloads against the paper's parameters.
func Summarize(reqs []Request) Stats {
	s := Stats{N: len(reqs), MinInput: math.MaxInt, MinOutput: math.MaxInt}
	if len(reqs) == 0 {
		s.MinInput, s.MinOutput = 0, 0
		return s
	}
	topics := map[int]bool{}
	sessions := map[uint64]bool{}
	tenants := map[string]bool{}
	var lastArrival float64
	for _, q := range reqs {
		s.MeanInput += float64(q.InputTokens)
		s.MeanOut += float64(q.OutputTokens)
		topics[q.Topic] = true
		if q.Session != 0 {
			sessions[q.Session] = true
		}
		if q.Tenant != "" {
			tenants[q.Tenant] = true
		}
		if q.ArrivalMS > lastArrival {
			lastArrival = q.ArrivalMS
		}
		s.MinInput = min(s.MinInput, q.InputTokens)
		s.MaxInput = max(s.MaxInput, q.InputTokens)
		s.MinOutput = min(s.MinOutput, q.OutputTokens)
		s.MaxOutput = max(s.MaxOutput, q.OutputTokens)
	}
	s.MeanInput /= float64(len(reqs))
	s.MeanOut /= float64(len(reqs))
	s.Topics = len(topics)
	s.Sessions = len(sessions)
	s.Tenants = len(tenants)
	s.DurationMS = lastArrival
	if lastArrival > 0 {
		s.RateRPS = float64(len(reqs)) / (lastArrival / 1000)
	}
	return s
}

// SummarizeTenants partitions a population by tenant (untagged requests
// fall under "") and summarizes each partition. The partitions are exact:
// every request contributes to exactly one tenant's Stats.
func SummarizeTenants(reqs []Request) map[string]Stats {
	byTenant := map[string][]Request{}
	for _, q := range reqs {
		byTenant[q.Tenant] = append(byTenant[q.Tenant], q)
	}
	out := make(map[string]Stats, len(byTenant))
	for name, qs := range byTenant {
		out[name] = Summarize(qs)
	}
	return out
}

package workload

import (
	"encoding/json"
	"fmt"
	"io"
)

// traceFile is the on-disk trace format: enough to replay a workload
// deterministically without re-sampling (request embeddings are
// reconstructed from the dataset's topic space plus the stored noise seed).
type traceFile struct {
	Version  int            `json:"version"`
	Dataset  Dataset        `json:"dataset"`
	Dim      int            `json:"dim"`
	Requests []requestEntry `json:"requests"`
}

type requestEntry struct {
	ID           uint64    `json:"id"`
	Topic        int       `json:"topic"`
	Embedding    []float64 `json:"embedding"`
	InputTokens  int       `json:"input_tokens"`
	OutputTokens int       `json:"output_tokens"`
	Seed         uint64    `json:"seed"`
	ArrivalMS    float64   `json:"arrival_ms"`
	// Session/Turn/Tenant carry multi-turn and multi-tenant identity, and
	// Dataset the per-request dataset name where it differs from the
	// file's (multi-tenant mixes blend datasets); omitempty keeps
	// version-1 traces written before these fields byte-compatible.
	Session uint64 `json:"session,omitempty"`
	Turn    int    `json:"turn,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	Dataset string `json:"dataset,omitempty"`
}

// WriteTrace serializes a request population to JSON. The dataset metadata
// travels with the trace so a replayer can regenerate topic directions.
// It rejects what ReadTrace would: a non-positive dim, or an embedding
// whose length is not dim.
func WriteTrace(w io.Writer, d Dataset, dim int, reqs []Request) error {
	if dim <= 0 {
		return fmt.Errorf("workload: invalid trace dim %d", dim)
	}
	tf := traceFile{Version: 1, Dataset: d, Dim: dim}
	for i, q := range reqs {
		if len(q.Embedding) != dim {
			return fmt.Errorf("workload: request %d embedding dim %d != %d", i, len(q.Embedding), dim)
		}
		e := requestEntry{
			ID: q.ID, Topic: q.Topic, Embedding: q.Embedding,
			InputTokens: q.InputTokens, OutputTokens: q.OutputTokens,
			Seed: q.Seed, ArrivalMS: q.ArrivalMS,
			Session: q.Session, Turn: q.Turn, Tenant: q.Tenant,
		}
		if q.Dataset != d.Name {
			e.Dataset = q.Dataset
		}
		tf.Requests = append(tf.Requests, e)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(tf)
}

// ReadTrace deserializes a trace written by WriteTrace, validating its
// structural invariants.
func ReadTrace(r io.Reader) (Dataset, []Request, error) {
	var tf traceFile
	if err := json.NewDecoder(r).Decode(&tf); err != nil {
		return Dataset{}, nil, fmt.Errorf("workload: decode trace: %w", err)
	}
	if tf.Version != 1 {
		return Dataset{}, nil, fmt.Errorf("workload: unsupported trace version %d", tf.Version)
	}
	if tf.Dim <= 0 {
		return Dataset{}, nil, fmt.Errorf("workload: invalid trace dim %d", tf.Dim)
	}
	reqs := make([]Request, 0, len(tf.Requests))
	seen := make(map[uint64]bool, len(tf.Requests))
	var lastArrival float64
	for i, e := range tf.Requests {
		if len(e.Embedding) != tf.Dim {
			return Dataset{}, nil, fmt.Errorf("workload: request %d embedding dim %d != %d", i, len(e.Embedding), tf.Dim)
		}
		if e.InputTokens <= 0 || e.OutputTokens <= 0 {
			return Dataset{}, nil, fmt.Errorf("workload: request %d has non-positive token counts", i)
		}
		if seen[e.ID] {
			return Dataset{}, nil, fmt.Errorf("workload: duplicate request ID %d", e.ID)
		}
		seen[e.ID] = true
		if e.ArrivalMS < lastArrival {
			return Dataset{}, nil, fmt.Errorf("workload: request %d arrival goes backwards", i)
		}
		lastArrival = e.ArrivalMS
		q := Request{
			Topic: e.Topic, ArrivalMS: e.ArrivalMS, Dataset: tf.Dataset.Name,
			Session: e.Session, Turn: e.Turn, Tenant: e.Tenant,
		}
		if e.Dataset != "" {
			q.Dataset = e.Dataset
		}
		q.ID = e.ID
		q.Embedding = e.Embedding
		q.InputTokens = e.InputTokens
		q.OutputTokens = e.OutputTokens
		q.Seed = e.Seed
		reqs = append(reqs, q)
	}
	// Embeddings are rebacked onto one exact array, sized only after every
	// row checked out at tf.Dim so a file cannot ask for more than it
	// holds: the decoder's per-request slices (each grown by appending, so
	// over-capacity) become garbage, and the returned rows are
	// full-slice-capped like a generated trace's.
	backing := make([]float64, len(reqs)*tf.Dim)
	for i := range reqs {
		row := backing[i*tf.Dim : (i+1)*tf.Dim : (i+1)*tf.Dim]
		copy(row, reqs[i].Embedding)
		reqs[i].Embedding = row
	}
	return tf.Dataset, reqs, nil
}

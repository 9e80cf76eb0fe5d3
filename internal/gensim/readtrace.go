package gensim

import (
	"fmt"
	"math/rand"
)

// ReadTraceConfig controls the synthetic read-query trace that drives
// mapping-service replays (soak) — the query-side analogue of TraceConfig's
// build requests. Each client issues mapping queries for reads drawn from
// the population; a RepeatRate fraction re-issue an earlier query's exact
// read bytes, which is what lets soak's repeat-identical check pin
// "identical reads map identically" across snapshot hot-swaps.
type ReadTraceConfig struct {
	// Queries is the total number of queries in the trace (≥1).
	Queries int
	// Clients is the number of simulated query streams (≥1); queries are
	// interleaved round-robin across them in issue order.
	Clients int
	// ReadLen, SubRate and IndelRate parameterize the fresh reads exactly as
	// ReadConfig does.
	ReadLen   int
	SubRate   float64
	IndelRate float64
	// RepeatRate is the probability that a query re-issues a uniformly
	// chosen earlier read instead of a fresh one.
	RepeatRate float64
	// ClientSkew, when in (0,1), replaces round-robin client assignment
	// with a truncated geometric draw (client c issues with weight
	// ClientSkew^c): one hot client, a long cold tail. 0 keeps round-robin
	// — and the rng stream byte-identical to earlier releases.
	ClientSkew float64
	// Contamination is the probability that a fresh read is a uniform
	// random sequence with no origin in the population (Hap = -1, Pos = -1),
	// as in ReadConfig.Contamination. 0 draws nothing extra.
	Contamination float64
	// Seed makes the trace deterministic.
	Seed int64
}

// DefaultReadTraceConfig is a laptop-scale short-read query workload.
func DefaultReadTraceConfig() ReadTraceConfig {
	return ReadTraceConfig{
		Queries:    256,
		Clients:    4,
		ReadLen:    150,
		SubRate:    0.002,
		IndelRate:  0.0001,
		RepeatRate: 0.2,
		Seed:       42,
	}
}

// ReadQuery is one mapping query of the trace.
type ReadQuery struct {
	// Client identifies the issuing stream (0-based).
	Client int
	// Read is the query read with its ground truth. Repeated queries share
	// the original's truth (and its exact Seq bytes).
	Read Read
	// Repeat is the index of the earlier query this one re-issues, or -1
	// for a fresh read.
	Repeat int
}

// ReadQueryTrace generates a deterministic read-query trace over the
// population's haplotypes: fresh reads are sampled uniformly across
// haplotypes and positions with the error model applied, and RepeatRate of
// the queries re-issue earlier reads byte-for-byte.
func (p *Population) ReadQueryTrace(cfg ReadTraceConfig) ([]ReadQuery, error) {
	if cfg.Queries < 1 {
		return nil, fmt.Errorf("gensim: read trace needs ≥1 query (got %d)", cfg.Queries)
	}
	if cfg.Clients < 1 {
		return nil, fmt.Errorf("gensim: read trace needs ≥1 client (got %d)", cfg.Clients)
	}
	if cfg.ReadLen < 1 {
		return nil, fmt.Errorf("gensim: read trace needs ReadLen ≥1 (got %d)", cfg.ReadLen)
	}
	if cfg.RepeatRate < 0 || cfg.RepeatRate > 1 {
		return nil, fmt.Errorf("gensim: RepeatRate %v outside [0,1]", cfg.RepeatRate)
	}
	if cfg.ClientSkew < 0 || cfg.ClientSkew >= 1 {
		return nil, fmt.Errorf("gensim: ClientSkew %v outside [0,1)", cfg.ClientSkew)
	}
	if cfg.Contamination < 0 || cfg.Contamination > 1 {
		return nil, fmt.Errorf("gensim: Contamination %v outside [0,1]", cfg.Contamination)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]ReadQuery, 0, cfg.Queries)
	for q := 0; q < cfg.Queries; q++ {
		rq := ReadQuery{Client: q % cfg.Clients, Repeat: -1}
		if cfg.ClientSkew > 0 {
			rq.Client = skewedIndex(rng, cfg.Clients, cfg.ClientSkew)
		}
		if len(out) > 0 && rng.Float64() < cfg.RepeatRate {
			rq.Repeat = rng.Intn(len(out))
			rq.Read = out[rq.Repeat].Read
			rq.Read.Name = fmt.Sprintf("query%06d@%d", q, rq.Repeat)
		} else if cfg.Contamination > 0 && rng.Float64() < cfg.Contamination {
			rq.Read = Read{
				Name: fmt.Sprintf("query%06d", q),
				Seq:  RandomGenome(rng, cfg.ReadLen),
				Hap:  -1,
				Pos:  -1,
			}
		} else {
			h := rng.Intn(len(p.Haplotypes))
			hap := p.Haplotypes[h].Seq
			length := cfg.ReadLen
			if length > len(hap) {
				length = len(hap)
			}
			pos := 0
			if len(hap) > length {
				pos = rng.Intn(len(hap) - length)
			}
			rq.Read = Read{
				Name: fmt.Sprintf("query%06d", q),
				Seq:  applyErrors(rng, hap[pos:pos+length], cfg.SubRate, cfg.IndelRate),
				Hap:  h,
				Pos:  pos,
			}
		}
		out = append(out, rq)
	}
	return out, nil
}

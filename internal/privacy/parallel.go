package privacy

import (
	"math/rand"
	"runtime"
	"sync"

	"privateclean/internal/relation"
)

// StreamSeed derives the RNG seed for one shard (or pipeline chunk) of a
// privatize run from the job seed via a splitmix64 step. Every shard gets an
// independent, reproducible stream: the released bytes depend only on
// (seed, shard index), never on which goroutine or in what order the shard
// ran. Shard indexes are offset by one so shard 0 does not reuse the raw
// job seed.
func StreamSeed(seed int64, shard int) uint64 {
	x := uint64(seed) + 0x9E3779B97F4A7C15*uint64(shard+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// StreamRand returns the math/rand stream for one shard of a privatize run,
// seeded by StreamSeed.
func StreamRand(seed int64, shard int) *rand.Rand {
	return rand.New(rand.NewSource(int64(StreamSeed(seed, shard))))
}

// ShardRows is the fixed number of rows per PrivatizeParallel shard. It is
// part of the released-bytes contract: shard boundaries and per-shard RNG
// streams depend only on this constant and the seed, so a (seed, params)
// pair produces the same view at any worker count. Changing it changes the
// released bytes for a given seed.
const ShardRows = 4096

// PrivatizeParallel is Privatize with deterministic per-shard RNG streams
// and a bounded worker pool: the relation is split into fixed ShardRows-row
// shards, shard s is privatized with StreamRand(seed, s), and workers write
// disjoint row ranges of the view concurrently. The output is a pure
// function of (seed, r, params) — byte-identical for any workers value,
// including 1. workers <= 0 means runtime.GOMAXPROCS(0).
//
// Note the stream layout differs from Privatize(rng, ...) with a single
// rng: the two entry points release different (equally private) views for
// the same seed.
func PrivatizeParallel(seed int64, r *relation.Relation, params Params, workers int) (*relation.Relation, *ViewMeta, error) {
	meta, err := ViewMetaFor(r, params)
	if err != nil {
		return nil, nil, err
	}
	rel, err := newRelease(r, meta)
	if err != nil {
		return nil, nil, err
	}
	rows := r.NumRows()
	shards := (rows + ShardRows - 1) / ShardRows
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, shards)
	// Each shard writes a disjoint row range of the view, so workers need
	// no synchronization beyond the job channel; one worker is the serial
	// run.
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				lo := s * ShardRows
				rel.privatize(StreamRand(seed, s), lo, min(lo+ShardRows, rows))
			}
		}()
	}
	for s := 0; s < shards; s++ {
		jobs <- s
	}
	close(jobs)
	wg.Wait()
	out, err := rel.view()
	if err != nil {
		return nil, nil, err
	}
	return out, meta, nil
}

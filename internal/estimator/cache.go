package estimator

import (
	"sync"
	"sync/atomic"

	"privateclean/internal/relation"
)

// ChannelCache memoizes the deterministic computations behind every
// corrected estimate on a resident relation:
//
//   - the resolved response channel (p, N, l) of a predicate — which may
//     walk the cleaning provenance graph to compute a weighted vertex cut;
//   - the per-code aggregates of a (discrete attribute, numeric column)
//     pair: per-code sums plus the column's moments (aggs.go), from which
//     count, sum, avg and GROUP BY fold; built by the first var/std, per-code
//     counts and central moments, from which var/std fold; and, built by
//     the first quantile or binned count, the column's per-code bin counts
//     (binned.go), from which those fold;
//   - the per-bin moments of a (binned attribute, numeric column) pair,
//     which binned sum and avg read; and
//   - the joint table of a conjunction's attribute set (sorted by name)
//     with or without a numeric column: per-cell counts and moments,
//     which every conjunction over those attributes folds.
//
// All are pure functions of the view, so a long-lived query server attaches
// one cache to its Estimator and a repeated query resolves in a few map
// lookups. Results are identical with and without the cache: with none (the
// CLI's one-shot path) the same builders run on every call.
//
// Channel keys are the predicate's rendered description, which
// is canonical for Eq/NotEq/In/And/Not-built predicates (values render
// quoted, so no two distinct value sets collide); the match-all nil
// predicate gets its own reserved key. Fn-built predicates are NOT cached —
// a UDF name does not uniquely determine the wrapped function — and neither
// is a hand-built Predicate with a Match func but no description; both are
// recomputed per call.
//
// The cache is safe for concurrent use, and concurrent misses on one table
// build it once. Tables are validated against the *DiscreteIndex and
// numeric backing arrays they were built from, so a relation write that
// replaces a column's index or backing array rebuilds the entry rather than
// serving it stale.
type ChannelCache struct {
	mu      sync.RWMutex
	chans   map[predKey]channelVal
	entries map[entryKey]*entry
	hits    [numKinds]atomic.Int64
	misses  [numKinds]atomic.Int64
}

// NewChannelCache returns an empty cache ready for concurrent use.
func NewChannelCache() *ChannelCache {
	return &ChannelCache{
		chans:   make(map[predKey]channelVal),
		entries: make(map[entryKey]*entry),
	}
}

// kind classifies cache entries for Stats.
type kind int

const (
	kindChannel kind = iota
	kindJoint
	kindPerCode
	kindBin
	numKinds
)

var kindNames = [numKinds]string{"channel", "joint", "per-code", "bin"}

type predKey struct {
	attr string
	desc string
}

type channelVal struct {
	p float64
	n int
	l float64
	// tauN and denom are GRR's inversion constants at the mapped p
	// (privacy.GRRP) for (n, l): tauN = P[private value matches | true
	// value does not] and denom = tau_p - tau_n, the signal every corrected
	// estimate divides by. They are resolved once here so the estimate
	// math never branches on the mechanism name; p keeps the written value
	// for error messages.
	tauN  float64
	denom float64
}

// entryKey names one memoized table: its kind, the attribute it is grouped
// by (for joint tables, the NUL-joined attribute set), and the numeric
// column it aggregates.
type entryKey struct {
	kind kind
	attr string
	sub  string
}

// source identifies the data a table was built from: the dictionary it is
// grouped by and the first cells of the numeric columns it reads. A table
// is served only to callers reading the same source.
type source struct {
	ix   *relation.DiscreteIndex
	x, y *float64
	rows int
}

func sourceOf(ix *relation.DiscreteIndex, x, y []float64) source {
	s := source{ix: ix, rows: len(x)}
	if len(x) > 0 {
		s.x = &x[0]
	}
	if len(y) > 0 {
		s.y = &y[0]
	}
	return s
}

type entry struct {
	src  source
	once sync.Once
	val  any
}

// memo returns the table stored under k for src, building it on a miss.
// Concurrent misses on one key wait for a single build. A nil cache builds
// on every call.
func memo[T any](c *ChannelCache, k entryKey, src source, build func() T) T {
	if c == nil {
		return build()
	}
	c.mu.RLock()
	e, hit := c.entries[k]
	hit = hit && e.src == src
	c.mu.RUnlock()
	if !hit {
		c.mu.Lock()
		// Another miss may have inserted the entry since the read lock.
		if e2, ok := c.entries[k]; ok && e2.src == src {
			e, hit = e2, true
		} else {
			e = &entry{src: src}
			c.entries[k] = e
		}
		c.mu.Unlock()
	}
	c.count(k.kind, hit)
	e.once.Do(func() { e.val = build() })
	return e.val.(T)
}

func (c *ChannelCache) count(k kind, hit bool) {
	if hit {
		c.hits[k].Add(1)
	} else {
		c.misses[k].Add(1)
	}
}

// predCacheKey returns the cache key for pred and whether pred is cacheable.
// A predicate is cacheable when its description uniquely determines its
// semantics: Eq/NotEq/In/And/Not-built predicates qualify, the nil-Match
// (match-all) predicate is keyed under a reserved tag, and Fn-built or
// desc-less predicates (noCache) do not.
func predCacheKey(pred Predicate) (predKey, bool) {
	if pred.Match == nil {
		return predKey{attr: pred.Attr, desc: "\x00all"}, true
	}
	if pred.noCache || pred.desc == "" {
		return predKey{}, false
	}
	return predKey{attr: pred.Attr, desc: pred.desc}, true
}

func (c *ChannelCache) getChannel(k predKey) (channelVal, bool) {
	c.mu.RLock()
	v, ok := c.chans[k]
	c.mu.RUnlock()
	c.count(kindChannel, ok)
	return v, ok
}

func (c *ChannelCache) putChannel(k predKey, v channelVal) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.chans[k] = v
}

// forget drops the table stored under k.
func (c *ChannelCache) forget(k entryKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.entries, k)
}

// Len reports how many channels and conjunction joint tables are resident
// (for tests and server introspection).
func (c *ChannelCache) Len() (channels, tables int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for k := range c.entries {
		if k.kind == kindJoint {
			tables++
		}
	}
	return len(c.chans), tables
}

// CacheStats is the activity of one kind of ChannelCache entry: lookups
// answered from the cache, lookups that built (or resolved) the entry, and
// the entries resident now.
type CacheStats struct {
	Kind                  string
	Hits, Misses, Entries int64
}

// Stats reports hits, misses and resident entries for each kind of entry —
// channel, joint, per-code and bin — in that order.
func (c *ChannelCache) Stats() []CacheStats {
	out := make([]CacheStats, numKinds)
	c.mu.RLock()
	out[kindChannel].Entries = int64(len(c.chans))
	for k := range c.entries {
		out[k.kind].Entries++
	}
	c.mu.RUnlock()
	for k := range out {
		out[k].Kind = kindNames[k]
		out[k].Hits = c.hits[k].Load()
		out[k].Misses = c.misses[k].Load()
	}
	return out
}

package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"privateclean/internal/collect"
	"privateclean/internal/dist"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
	"privateclean/internal/workload"
)

// Every input the benchmark feeds the program is a pure function of the
// --seed argument: the datasets, the query stream and its request bodies,
// and the report batches. Each consumer draws from its own derived stream,
// so changing one generator never shifts another's inputs.

// Dataset shape shared by every workload: the paper's section/instructor
// relation (Figure 7's weighted provenance graph after an FD repair).
const (
	numSections    = 1000
	numInstructors = 50
	zipfExp        = 1.1
	nullFrac       = 0.05
	privP          = 0.1
	privB          = 10
	privBins       = 64
)

// Stream tags for derive.
const (
	streamData = iota + 1
	streamPrivatize
	streamQueries
	streamReports
)

// derive maps (seed, stream) to an independent seed with one splitmix64
// round.
func derive(seed int64, stream int) int64 {
	z := uint64(seed) + uint64(stream)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// dataset generates the dirty section/instructor/value relation.
func dataset(seed int64, rows int) (*relation.Relation, error) {
	rng := rand.New(rand.NewSource(derive(seed, streamData)))
	return workload.MultiAttr(rng, workload.MultiAttrConfig{
		S:           rows,
		Sections:    numSections,
		Instructors: numInstructors,
		Z:           zipfExp,
		ErrorRate:   nullFrac,
	})
}

// releaseParams is the GRR/Laplace release every workload uses.
func releaseParams(schema relation.Schema) privacy.Params {
	params := privacy.Uniform(schema, privP, privB)
	params.Bins = privBins
	return params
}

// Query families. Each maps to one estimator entry point, which is what the
// traced run times.
type family int

const (
	famCount family = iota
	famSum
	famAvg
	famGroup
	famGroupBin
	famConj
	famQuantile
	famVar
)

var familyNames = [...]string{"count", "sum", "avg", "group", "group_bin", "conj", "quantile", "var"}

func (f family) String() string { return familyNames[f] }

// residentCycle and statsCycle fix each workload's query mix: the stream
// walks the cycle, so every run sees the same share of each family and only
// the predicates vary with the seed. The statistics path answers neither
// var nor binned sum/avg, so its cycle leaves var out and its binned GROUP
// BY is count-only.
var (
	residentCycle = []family{famCount, famSum, famAvg, famGroup, famGroupBin, famConj, famQuantile, famVar}
	statsCycle    = []family{famCount, famSum, famAvg, famGroup, famGroupBin, famConj, famQuantile}
)

// predPoolSize is the number of distinct predicates; queries pick one by a
// zipf draw over the pool, so popular predicates repeat (channel-cache
// hits) and the tail is distinct (misses).
const predPoolSize = 256

// warmDistinct is the number of distinct queries a set-up warms: the
// stream's prefix up to the first appearance of its warmDistinct-th
// distinct query. The measured stream follows that prefix.
const warmDistinct = 128

// predicate returns pool entry r: an IN-list over 1-3 sections whose first
// member is the rank-r section (rank 0 is the most popular), and the
// instructor IN-list conjunctions pair with it. The pool's shape is fixed,
// so a popular predicate selects about the same share of rows under every
// seed; the seed decides how often each entry is drawn and in which order.
func predicate(r int, sections, instructors []string) (where, conj string) {
	secs := []string{sections[r%len(sections)], sections[(7*r+13)%len(sections)], sections[(31*r+101)%len(sections)]}
	insts := []string{instructors[(3*r)%len(instructors)], instructors[(3*r+1)%len(instructors)]}
	return inList("section", secs[:1+r%3]), inList("instructor", insts[:1+r%2])
}

// queryStream generates the SQL stream over the given cycle: the warm-up
// prefix (see warmDistinct) followed by n measured queries. It returns the
// stream and the prefix length. sections and instructors are the values
// present in the dataset's domains (sections sorted by zipf rank), so every
// predicate names a released value.
func queryStream(seed int64, n int, cycle []family, sections, instructors []string, statsOnly bool) ([]string, int, error) {
	rng := rand.New(rand.NewSource(derive(seed, streamQueries)))
	poolZipf, err := dist.NewZipf(predPoolSize, zipfExp)
	if err != nil {
		return nil, 0, err
	}
	aggs := []string{"count(1)", "sum(value)", "avg(value)"}
	quantiles := []string{"median(value)", "quantile(value, 0.25)", "quantile(value, 0.9)"}
	var out []string
	seen := make(map[string]bool)
	prefix := -1
	for i := 0; prefix < 0 || i < prefix+n; i++ {
		fam := cycle[i%len(cycle)]
		variant := (i / len(cycle)) % 3
		where, conj := predicate(poolZipf.Sample(rng), sections, instructors)
		var sql string
		switch fam {
		case famCount, famSum, famAvg:
			sql = fmt.Sprintf("SELECT %s FROM R WHERE %s", aggs[fam-famCount], where)
		case famGroup:
			sql = fmt.Sprintf("SELECT %s FROM R GROUP BY instructor", aggs[variant])
		case famGroupBin:
			agg := aggs[variant]
			if statsOnly {
				agg = aggs[0]
			}
			sql = fmt.Sprintf("SELECT %s FROM R GROUP BY bin(value)", agg)
		case famConj:
			sql = fmt.Sprintf("SELECT %s FROM R WHERE %s AND %s", aggs[variant], where, conj)
		case famQuantile:
			sql = fmt.Sprintf("SELECT %s FROM R WHERE %s", quantiles[variant], where)
		case famVar:
			sql = fmt.Sprintf("SELECT var(value) FROM R WHERE %s", where)
		}
		out = append(out, sql)
		if prefix < 0 && !seen[sql] {
			seen[sql] = true
			if len(seen) == warmDistinct {
				prefix = i + 1
			}
		}
	}
	return out, prefix, nil
}

// inList renders attr IN (...) over the distinct sorted values, so equal
// value sets always render (and cache) identically.
func inList(attr string, vals []string) string {
	sort.Strings(vals)
	uniq := vals[:0]
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			uniq = append(uniq, v)
		}
	}
	quoted := make([]string, len(uniq))
	for i, v := range uniq {
		quoted[i] = "'" + v + "'"
	}
	return fmt.Sprintf("%s IN (%s)", attr, strings.Join(quoted, ", "))
}

// domainsByRank returns the section values present in r ordered by their
// generator rank (sec000 is the most popular), and the instructor values
// present, sorted.
func domainsByRank(r *relation.Relation) (sections, instructors []string, err error) {
	if sections, err = r.Domain("section"); err != nil {
		return nil, nil, err
	}
	if instructors, err = r.Domain("instructor"); err != nil {
		return nil, nil, err
	}
	sort.Strings(sections) // "secNNN" sorts by rank
	kept := instructors[:0]
	for _, v := range instructors {
		if v != relation.Null {
			kept = append(kept, v)
		}
	}
	sort.Strings(kept)
	return sections, kept, nil
}

// queryBody is the pre-encoded /v1/query request body.
func queryBody(sql string) []byte {
	b, _ := json.Marshal(map[string]string{"query": sql}) // a map of strings always encodes
	return b
}

// batchBody is the pre-encoded /v1/query/batch request body.
func batchBody(sqls []string) []byte {
	b, _ := json.Marshal(map[string][]string{"queries": sqls}) // always encodes
	return b
}

// reportBatch is one pre-randomized /v1/report batch: its reports (kept for
// the ingest check) and the encoded request body.
type reportBatch struct {
	reports []privacy.Report
	body    []byte
}

// reportBatches randomizes the records client-side under meta, size per
// batch (record j drawing from StreamRand(seed, j)), and encodes n batches:
// batch i carries the reports of randomized batch i mod len(recs)/size
// under its own batch ID, so the collector counts every batch.
func reportBatches(seed int64, recs []privacy.Record, meta *privacy.ViewMeta, n, size int) ([]reportBatch, error) {
	fp := privacy.MechanismFingerprint(meta)
	base := derive(seed, streamReports)
	pool := make([][]privacy.Report, len(recs)/size)
	for k := range pool {
		reports, err := privacy.PrivatizeRecords(nil, nil, base, k*size, meta, recs[k*size:(k+1)*size])
		if err != nil {
			return nil, err
		}
		pool[k] = reports
	}
	out := make([]reportBatch, n)
	for i := range out {
		reports := pool[i%len(pool)]
		body, err := json.Marshal(collect.Batch{
			ID:        fmt.Sprintf("bench-%d-%06d", seed, i),
			Mechanism: fp,
			Reports:   reports,
		})
		if err != nil {
			return nil, err
		}
		out[i] = reportBatch{reports: reports, body: body}
	}
	return out, nil
}

// records turns a relation into client records.
func records(r *relation.Relation) ([]privacy.Record, error) {
	out := make([]privacy.Record, r.NumRows())
	for i := range out {
		row, err := r.Row(i)
		if err != nil {
			return nil, err
		}
		out[i] = privacy.Record{Discrete: row.Discrete, Numeric: row.Numeric}
	}
	return out, nil
}

package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"privateclean/internal/atomicio"
	"privateclean/internal/cleaning"
	"privateclean/internal/colstore"
	"privateclean/internal/estimator"
	"privateclean/internal/privacy"
	"privateclean/internal/provenance"
	"privateclean/internal/query"
	"privateclean/internal/relation"
	"privateclean/internal/server"
)

// Serving workload sizes.
const (
	serveRows       = 500_000
	residentRate    = 200.0
	statsRate       = 250.0
	queriesPerBatch = 16
	serveClients    = 2
	serveSetups     = 3
)

// served is the cleaned 500k-row view both query workloads serve, with its
// metadata and provenance on disk as `pc privatize` and `pc clean` leave
// them.
type served struct {
	cleaned               *relation.Relation
	metaPath, provPath    string
	sections, instructors []string
}

// prepareServed generates, privatizes and cleans the served view. This is
// input preparation, not measured.
func prepareServed(o opts) (*served, error) {
	rel, err := dataset(o.seed, serveRows)
	if err != nil {
		return nil, err
	}
	view, meta, err := privacy.PrivatizeParallel(derive(o.seed, streamPrivatize), rel, releaseParams(rel.Schema()), runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	prov := provenance.NewStore()
	if err := cleaning.Apply(&cleaning.Context{Rel: view, Prov: prov, Meta: meta}, fdRepair); err != nil {
		return nil, err
	}
	sv := &served{cleaned: view, metaPath: filepath.Join(o.dir, "meta.json"), provPath: filepath.Join(o.dir, "prov.json")}
	if err := atomicio.WriteJSON(sv.metaPath, meta); err != nil {
		return nil, err
	}
	if err := atomicio.WriteJSON(sv.provPath, prov); err != nil {
		return nil, err
	}
	sv.sections, sv.instructors, err = domainsByRank(view)
	return sv, err
}

// readServing loads view metadata and provenance the way `pc serve` does.
func readServing(metaPath, provPath string) (*privacy.ViewMeta, *provenance.Store, error) {
	meta := &privacy.ViewMeta{}
	if err := readJSON(metaPath, meta); err != nil {
		return nil, nil, err
	}
	prov := provenance.NewStore()
	if err := readJSON(provPath, prov); err != nil {
		return nil, nil, err
	}
	return meta, prov, nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// openResident starts a server over a packed view (`pc serve -col`).
func openResident(pcol, metaPath, provPath string) (*server.Server, *colstore.View, error) {
	meta, prov, err := readServing(metaPath, provPath)
	if err != nil {
		return nil, nil, err
	}
	view, err := colstore.Open(pcol)
	if err != nil {
		return nil, nil, err
	}
	srv, err := server.New(server.Config{Rel: view.Relation(), Meta: meta, Prov: prov})
	if err != nil {
		view.Close()
		return nil, nil, err
	}
	return srv, view, nil
}

// openStats starts a server over sufficient statistics (`pc serve -stats`).
func openStats(statsPath, metaPath, provPath string) (*server.Server, error) {
	meta, prov, err := readServing(metaPath, provPath)
	if err != nil {
		return nil, err
	}
	st := &estimator.Statistics{}
	if err := readJSON(statsPath, st); err != nil {
		return nil, err
	}
	return server.New(server.Config{Stats: st, Meta: meta, Prov: prov})
}

// familyOf classifies a parsed query by the estimator entry point that
// answers it.
func familyOf(q *query.Query) family {
	switch {
	case len(q.AndWhere) > 0:
		return famConj
	case q.GroupBin:
		return famGroupBin
	case q.GroupBy != "":
		return famGroup
	case q.Agg == query.AggMedian || q.Agg == query.AggQuantile:
		return famQuantile
	case q.Agg == query.AggVar:
		return famVar
	case q.Agg == query.AggSum:
		return famSum
	case q.Agg == query.AggAvg:
		return famAvg
	}
	return famCount
}

// replayer answers generated queries through the library's public entry
// points — query.Parse, query.CompilePredicate/CompileConjunction, then the
// estimator — with its own Estimator and ChannelCache. Its answers are the
// reference the served responses must match, and in the traced run its
// calls are the query and estimator spans. Calls are serialized so span
// times and cache growth belong to one call.
type replayer struct {
	mu     sync.Mutex
	est    *estimator.Estimator
	rel    *relation.Relation    // resident source, or
	st     *estimator.Statistics // statistics source
	calls  int
	misses int // estimator calls that grew the cache
}

func newReplayer(metaPath, provPath string, rel *relation.Relation, st *estimator.Statistics) (*replayer, error) {
	meta, prov, err := readServing(metaPath, provPath)
	if err != nil {
		return nil, err
	}
	est := &estimator.Estimator{Meta: meta, Prov: prov, Confidence: 0.95, Cache: estimator.NewChannelCache()}
	return &replayer{est: est, rel: rel, st: st}, nil
}

// cacheEntries is the cache's resident channel and bitset count.
func (rp *replayer) cacheEntries() int {
	c, t := rp.est.Cache.Len()
	return c + t
}

// answer estimates sql and renders it as the server does: one estimate
// text, or key=text per group (sorted keys; bins in bin order). busy is the
// time spent in the library, excluding the wait for another client's
// replay.
func (rp *replayer) answer(sql string, rec *recorder, parent, op int) (texts []string, busy time.Duration, err error) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	t0 := time.Now()
	defer func() { busy = time.Since(t0) }()
	s := rec.start("query.parse", parent, op)
	q, err := query.Parse(sql)
	rec.end(s)
	if err != nil {
		return nil, 0, err
	}
	fam := familyOf(q)
	var pred estimator.Predicate
	var preds []estimator.Predicate
	if q.Where != nil {
		s = rec.start("query.compile", parent, op)
		if fam == famConj {
			preds, err = query.CompileConjunction(q.Conds(), nil)
		} else {
			pred, err = query.CompilePredicate(q.Where, nil)
		}
		rec.end(s)
		if err != nil {
			return nil, 0, err
		}
	}
	name := "estimator." + fam.String()
	if rp.st != nil {
		name += "_stats"
	}
	before := rp.cacheEntries()
	s = rec.start(name, parent, op)
	texts, err = rp.estimate(q, fam, pred, preds)
	rec.end(s)
	rp.calls++
	if rp.cacheEntries() > before {
		rp.misses++
	}
	return texts, 0, err
}

func (rp *replayer) estimate(q *query.Query, fam family, pred estimator.Predicate, preds []estimator.Predicate) ([]string, error) {
	est, rel, st := rp.est, rp.rel, rp.st
	var e estimator.Estimate
	var groups map[string]estimator.Estimate
	var bins []estimator.BinEstimate
	var err error
	switch fam {
	case famCount:
		if st != nil {
			e, err = est.CountStats(st, pred)
		} else {
			e, err = est.Count(rel, pred)
		}
	case famSum:
		if st != nil {
			e, err = est.SumStats(st, q.AggAttr, pred)
		} else {
			e, err = est.Sum(rel, q.AggAttr, pred)
		}
	case famAvg:
		if st != nil {
			e, err = est.AvgStats(st, q.AggAttr, pred)
		} else {
			e, err = est.Avg(rel, q.AggAttr, pred)
		}
	case famGroup:
		switch {
		case st != nil && q.Agg == query.AggCount:
			groups, err = est.GroupCountsStats(st, q.GroupBy)
		case st != nil && q.Agg == query.AggSum:
			groups, err = est.GroupSumsStats(st, q.GroupBy, q.AggAttr)
		case st != nil:
			groups, err = est.GroupAvgsStats(st, q.GroupBy, q.AggAttr)
		case q.Agg == query.AggCount:
			groups, err = est.GroupCounts(rel, q.GroupBy)
		case q.Agg == query.AggSum:
			groups, err = est.GroupSums(rel, q.GroupBy, q.AggAttr)
		default:
			groups, err = est.GroupAvgs(rel, q.GroupBy, q.AggAttr)
		}
	case famGroupBin:
		switch {
		case st != nil:
			bins, err = est.GroupBinCountsStats(st, q.GroupBy)
		case q.Agg == query.AggCount:
			bins, err = est.GroupBinCounts(rel, q.GroupBy)
		case q.Agg == query.AggSum:
			bins, err = est.GroupBinSums(rel, q.GroupBy, q.AggAttr)
		default:
			bins, err = est.GroupBinAvgs(rel, q.GroupBy, q.AggAttr)
		}
	case famConj:
		switch {
		case st != nil && q.Agg == query.AggCount:
			e, err = est.CountConjStats(st, preds...)
		case st != nil && q.Agg == query.AggSum:
			e, err = est.SumConjStats(st, q.AggAttr, preds...)
		case st != nil:
			e, err = est.AvgConjStats(st, q.AggAttr, preds...)
		case q.Agg == query.AggCount:
			e, err = est.CountConj(rel, preds...)
		case q.Agg == query.AggSum:
			e, err = est.SumConj(rel, q.AggAttr, preds...)
		default:
			e, err = est.AvgConj(rel, q.AggAttr, preds...)
		}
	case famQuantile:
		switch {
		case st != nil && q.Agg == query.AggMedian:
			e, err = est.MedianStats(st, q.AggAttr, pred)
		case st != nil:
			e, err = est.PercentileStats(st, q.AggAttr, pred, q.Q)
		case q.Agg == query.AggMedian:
			e, err = est.Median(rel, q.AggAttr, pred)
		default:
			e, err = est.Percentile(rel, q.AggAttr, pred, q.Q)
		}
	case famVar:
		e, err = est.Var(rel, q.AggAttr, pred)
	}
	if err != nil {
		return nil, err
	}
	switch {
	case groups != nil:
		keys := make([]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := make([]string, len(keys))
		for i, k := range keys {
			out[i] = k + "=" + groups[k].String()
		}
		return out, nil
	case bins != nil:
		out := make([]string, len(bins))
		for i, b := range bins {
			out[i] = b.Label + "=" + b.Est.String()
		}
		return out, nil
	}
	return []string{e.String()}, nil
}

// wireQuery is the part of a /v1/query response the checks read.
type wireQuery struct {
	Estimate *struct {
		Text string `json:"text"`
	} `json:"estimate"`
	Groups []struct {
		Key      string `json:"key"`
		Estimate struct {
			Text string `json:"text"`
		} `json:"estimate"`
	} `json:"groups"`
}

func (w *wireQuery) texts() []string {
	if w.Estimate != nil {
		return []string{w.Estimate.Text}
	}
	out := make([]string, len(w.Groups))
	for i, g := range w.Groups {
		out[i] = g.Key + "=" + g.Estimate.Text
	}
	return out
}

// wireBatch is the part of a /v1/query/batch response the checks read.
type wireBatch struct {
	Results []struct {
		Status int        `json:"status"`
		Result *wireQuery `json:"result"`
	} `json:"results"`
}

// checkQuery verifies a /v1/query response against the reference texts.
func checkQuery(status int, body []byte, want []string) error {
	if status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", status, trimErr(body))
	}
	var w wireQuery
	if err := json.Unmarshal(body, &w); err != nil {
		return err
	}
	if got := w.texts(); !slices.Equal(got, want) {
		return fmt.Errorf("estimate %q, replay %q", got, want)
	}
	return nil
}

// checkBatch verifies a /v1/query/batch response item by item.
func checkBatch(status int, body []byte, want [][]string) error {
	if status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", status, trimErr(body))
	}
	var w wireBatch
	if err := json.Unmarshal(body, &w); err != nil {
		return err
	}
	if len(w.Results) != len(want) {
		return fmt.Errorf("%d results for %d queries", len(w.Results), len(want))
	}
	for i, r := range w.Results {
		if r.Status != http.StatusOK || r.Result == nil {
			return fmt.Errorf("item %d: status %d", i, r.Status)
		}
		if got := r.Result.texts(); !slices.Equal(got, want[i]) {
			return fmt.Errorf("item %d: estimate %q, replay %q", i, got, want[i])
		}
	}
	return nil
}

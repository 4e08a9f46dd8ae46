package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"privateclean/internal/atomicio"
	"privateclean/internal/colstore"
	"privateclean/internal/estimator"
	"privateclean/internal/privacy"
)

// queryPlan is a generated query stream with each query's distinct id and,
// once computed, each distinct query's reference answer.
type queryPlan struct {
	ids    []int    // stream index -> distinct id
	uniq   []string // distinct id -> SQL
	want   [][]string
	prefix int // length of the warm-up prefix
}

func newQueryPlan(qs []string, prefix int) *queryPlan {
	p := &queryPlan{ids: make([]int, len(qs)), prefix: prefix}
	seen := make(map[string]int)
	for i, sql := range qs {
		id, ok := seen[sql]
		if !ok {
			id = len(p.uniq)
			seen[sql] = id
			p.uniq = append(p.uniq, sql)
		}
		p.ids[i] = id
	}
	p.want = make([][]string, len(p.uniq))
	return p
}

// warmIDs returns the distinct ids of the warm-up prefix, in order of
// first appearance.
func (p *queryPlan) warmIDs() []int {
	var out []int
	seen := make(map[int]bool)
	for _, id := range p.ids[:p.prefix] {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// expect replays, in stream order, every distinct query of stream[:to]
// not answered yet, so the replayer's cache sees the sequence the server
// saw.
func (p *queryPlan) expect(rp *replayer, to int) error {
	for _, id := range p.ids[:to] {
		if p.want[id] != nil {
			continue
		}
		texts, _, err := rp.answer(p.uniq[id], nil, 0, 0)
		if err != nil {
			return fmt.Errorf("replay %q: %w", p.uniq[id], err)
		}
		p.want[id] = texts
	}
	return nil
}

// queryWork is a sequence of requests to one endpoint: /v1/query carries
// one query per request, /v1/query/batch queriesPerBatch.
type queryWork struct {
	path   string
	bodies [][]byte
	ids    [][]int // distinct ids of each request's queries
}

func newWork(path string, plan *queryPlan, ids []int) *queryWork {
	w := &queryWork{path: path}
	per := 1
	if path == "/v1/query/batch" {
		per = queriesPerBatch
	}
	for lo := 0; lo < len(ids); lo += per {
		group := ids[lo:min(lo+per, len(ids))]
		sqls := make([]string, len(group))
		for i, id := range group {
			sqls[i] = plan.uniq[id]
		}
		if per == 1 {
			w.bodies = append(w.bodies, queryBody(sqls[0]))
		} else {
			w.bodies = append(w.bodies, batchBody(sqls))
		}
		w.ids = append(w.ids, group)
	}
	return w
}

// check verifies response i against the reference answers.
func (w *queryWork) check(status int, body []byte, want [][]string) error {
	if w.path == "/v1/query" {
		return checkQuery(status, body, want[0])
	}
	return checkBatch(status, body, want)
}

func (w *queryWork) wantOf(plan *queryPlan, i int) [][]string {
	out := make([][]string, len(w.ids[i]))
	for k, id := range w.ids[i] {
		out[k] = plan.want[id]
	}
	return out
}

// queryServer is one started query workload: its endpoint, the set-up's
// warm-up responses awaiting their check, and the pieces the measurement
// needs afterwards.
type queryServer struct {
	path     string
	plan     *queryPlan
	warm     *queryWork
	warmResp [][]byte
	// replayer builds a fresh reference replayer over the served data.
	replayer func() (*replayer, error)
	close    func()
}

// warmUp posts every warm-up request once, keeping the responses.
func (qs *queryServer) warmUp(h *host) error {
	qs.warmResp = qs.warmResp[:0]
	for i, body := range qs.warm.bodies {
		status, resp, _, err := h.do(http.MethodPost, qs.path, body)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up request %d: HTTP %d: %s", i, status, trimErr(resp))
		}
		qs.warmResp = append(qs.warmResp, resp)
	}
	return nil
}

// expect computes reference answers for stream[:to] with rp and checks the
// last set-up's warm-up responses against them.
func (qs *queryServer) expect(rp *replayer, to int, st *runStats) error {
	if err := qs.plan.expect(rp, to); err != nil {
		return err
	}
	for i, resp := range qs.warmResp {
		if err := qs.warm.check(http.StatusOK, resp, qs.warm.wantOf(qs.plan, i)); err != nil {
			st.fail("warm-up request %d: %v", i, err)
		}
	}
	qs.warmResp = nil
	return nil
}

// setupResident runs query-resident's user-visible start-up reps times:
// pack the cleaned view, open it, start the server (reading metadata and
// provenance), and warm every distinct query of the warm-up prefix.
func setupResident(o opts, sv *served, plan *queryPlan, h *host, reps int, st *runStats) (*queryServer, error) {
	qs := &queryServer{path: "/v1/query", plan: plan, warm: newWork("/v1/query", plan, plan.warmIDs())}
	var view, ref *colstore.View
	var pcol string
	qs.close = func() {
		for _, v := range []*colstore.View{view, ref} {
			if v != nil {
				v.Close()
			}
		}
	}
	for k := 0; k < reps; k++ {
		pcol = filepath.Join(o.dir, fmt.Sprintf("cleaned-%d.pcol", k))
		runtime.GC() // every start-up begins from a collected heap
		t0 := time.Now()
		if _, err := colstore.WriteFile(pcol, sv.cleaned); err != nil {
			return nil, err
		}
		srv, v, err := openResident(pcol, sv.metaPath, sv.provPath)
		if err != nil {
			return nil, err
		}
		h.set(srv.Handler())
		if view != nil {
			view.Close() // the previous set-up's; its server is no longer installed
		}
		view = v
		if err := qs.warmUp(h); err != nil {
			return nil, err
		}
		st.setups = append(st.setups, time.Since(t0))
	}
	qs.replayer = func() (*replayer, error) {
		var err error
		if ref, err = colstore.Open(pcol); err != nil {
			return nil, err
		}
		return newReplayer(sv.metaPath, sv.provPath, ref.Relation(), nil)
	}
	return qs, nil
}

// setupStats runs query-stats' user-visible start-up reps times: collect
// statistics over the cleaned view, write and reload them as `pc stats` ->
// `pc serve -stats` does, start the server, and warm every distinct query
// of the warm-up prefix in batches.
func setupStats(o opts, sv *served, plan *queryPlan, h *host, reps int, st *runStats) (*queryServer, error) {
	qs := &queryServer{path: "/v1/query/batch", plan: plan, close: func() {},
		warm: newWork("/v1/query/batch", plan, plan.warmIDs())}
	statsPath := filepath.Join(o.dir, "stats.json")
	meta := &privacy.ViewMeta{}
	if err := readJSON(sv.metaPath, meta); err != nil {
		return nil, err
	}
	for k := 0; k < reps; k++ {
		runtime.GC()
		t0 := time.Now()
		coll, err := estimator.NewCollectorWith(collectOpts(meta))
		if err != nil {
			return nil, err
		}
		if err := coll.Add(sv.cleaned); err != nil {
			return nil, err
		}
		if err := atomicio.WriteJSON(statsPath, coll.Statistics()); err != nil {
			return nil, err
		}
		srv, err := openStats(statsPath, sv.metaPath, sv.provPath)
		if err != nil {
			return nil, err
		}
		h.set(srv.Handler())
		if err := qs.warmUp(h); err != nil {
			return nil, err
		}
		st.setups = append(st.setups, time.Since(t0))
	}
	qs.replayer = func() (*replayer, error) {
		stats := &estimator.Statistics{}
		if err := readJSON(statsPath, stats); err != nil {
			return nil, err
		}
		return newReplayer(sv.metaPath, sv.provPath, nil, stats)
	}
	return qs, nil
}

// queryLoop is the measured closed loop over one queryWork.
type queryLoop struct {
	lat      [][]time.Duration
	overhead [][]time.Duration // traced: request latency minus in-layer replay time
	errs     [][]string
}

// run posts every request of w from serveClients clients. Untraced, each
// response is checked against plan.want; traced (rp set), each client then
// replays the request's queries through the public entry points under its
// recorder and checks the response against that replay.
func (l *queryLoop) run(h *host, plan *queryPlan, w *queryWork, rp *replayer, recs []*recorder) time.Duration {
	l.lat = make([][]time.Duration, serveClients)
	l.overhead = make([][]time.Duration, serveClients)
	l.errs = make([][]string, serveClients)
	return closedLoop(serveClients, len(w.bodies), func(c, i int) {
		t0 := time.Now()
		status, body, d, err := h.do(http.MethodPost, w.path, w.bodies[i])
		var want [][]string
		if rp == nil {
			want = w.wantOf(plan, i)
		} else {
			recs[c].add("server.request", t0, t0.Add(d), 0, i)
			want = make([][]string, len(w.ids[i]))
			busy := time.Duration(0)
			for k, id := range w.ids[i] {
				texts, b, rerr := rp.answer(plan.uniq[id], recs[c], 0, i)
				if rerr != nil && err == nil {
					err = rerr
				}
				want[k], busy = texts, busy+b
			}
			l.overhead[c] = append(l.overhead[c], d-busy)
		}
		if err == nil {
			err = w.check(status, body, want)
		}
		if err != nil {
			l.errs[c] = append(l.errs[c], fmt.Sprintf("request %d: %v", i, err))
			return
		}
		l.lat[c] = append(l.lat[c], d)
	})
}

func (l *queryLoop) collectInto(st *runStats, attempted int) {
	st.attempted += attempted
	for c := range l.lat {
		st.lat = append(st.lat, l.lat[c]...)
		for _, e := range l.errs[c] {
			st.fail("%s", e)
		}
	}
}

// queryWorkload is the shape both query workloads share.
type queryWorkload struct {
	path   string
	cycle  []family
	rate   float64
	perOp  int
	setup  func(opts, *served, *queryPlan, *host, int, *runStats) (*queryServer, error)
	isStat bool
}

var (
	residentWorkload = queryWorkload{path: "/v1/query", cycle: residentCycle, rate: residentRate, perOp: 1, setup: setupResident}
	statsWorkload    = queryWorkload{path: "/v1/query/batch", cycle: statsCycle, rate: statsRate, perOp: queriesPerBatch, setup: setupStats, isStat: true}
)

func runQueryResident(o opts) (*runStats, error) { return residentWorkload.run(o) }
func runQueryStats(o opts) (*runStats, error)    { return statsWorkload.run(o) }

// run is one end-to-end run: prepare the view, set up several times, then
// post the fixed request sequence with serveClients clients.
func (qw queryWorkload) run(o opts) (*runStats, error) {
	sv, err := prepareServed(o)
	if err != nil {
		return nil, err
	}
	n := o.ops(qw.rate, 1000)
	stream, prefix, err := queryStream(o.seed, n*qw.perOp, qw.cycle, sv.sections, sv.instructors, qw.isStat)
	if err != nil {
		return nil, err
	}
	plan := newQueryPlan(stream, prefix)
	h, err := startHost()
	if err != nil {
		return nil, err
	}
	defer h.close()
	st := &runStats{}
	qs, err := qw.setup(o, sv, plan, h, serveSetups, st)
	if err != nil {
		return nil, err
	}
	defer qs.close()
	sv.cleaned = nil
	rp, err := qs.replayer()
	if err != nil {
		return nil, err
	}
	if err := qs.expect(rp, len(stream), st); err != nil {
		return nil, err
	}
	work := newWork(qw.path, plan, plan.ids[prefix:])

	var loop queryLoop
	mark := memMark()
	st.wall = loop.run(h, plan, work, nil, nil)
	st.allocBytes = memMark() - mark
	loop.collectInto(st, len(work.bodies))
	plan.want = nil // the reference answers are the harness's, not the server's heap
	st.liveHeap = liveHeap()
	return st, nil
}

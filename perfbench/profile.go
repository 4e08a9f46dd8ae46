package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"privateclean/internal/collect"
	"privateclean/internal/privacy"
)

// The traced run (--trace 1) is the per-layer profile. Whatever workload is
// named, it runs all four paths, so every per-layer metric comes from the
// workload that exercises its layer and one traced run prints them all.
// Each path is set up once, then runs an untraced phase and a traced phase
// of the same length (a quarter of --seconds each at the nominal rate); the
// two phases' ops_per_s and latency_p50_ms are the tracing overhead.
//
// Spans wrap the benchmark's own calls into each module: the release steps
// directly, and for the servers a replay of each request through the
// modules' public entry points right after its response (the serving code
// itself carries no benchmark spans). Per-layer times are mean self time
// per call.

// layerMetric is the per-layer metric a span name reports: its mean self
// time per call in unit.
type layerMetric struct {
	metric string
	unit   time.Duration
}

var layerMetrics = map[string]layerMetric{
	"csvio.read":         {"csvio.read_ms", time.Millisecond},
	"csvio.write":        {"csvio.write_ms", time.Millisecond},
	"privacy.privatize":  {"privacy.privatize_ms", time.Millisecond},
	"cleaning.fd_repair": {"cleaning.fd_repair_ms", time.Millisecond},
	"provenance.save":    {"provenance.save_ms", time.Millisecond},
	"colstore.write":     {"colstore.write_ms", time.Millisecond},
	"estimator.collect":  {"estimator.collect_ms", time.Millisecond},
	"query.parse":        {"query.parse_us", time.Microsecond},
	"query.compile":      {"query.compile_us", time.Microsecond},
	"collect.decode":     {"collect.decode_us", time.Microsecond},
	"collect.encode":     {"collect.encode_us", time.Microsecond},
	"collect.wal_append": {"collect.wal_append_us", time.Microsecond},
	"collect.fsync":      {"collect.fsync_us", time.Microsecond},
	"collect.fold":       {"collect.fold_ms", time.Millisecond},
	"collect.marshal":    {"collect.marshal_stats_ms", time.Millisecond},
	"collect.open_store": {"collect.open_store_ms", time.Millisecond},
}

func init() {
	// One estimator metric per aggregate family and source; the replayer
	// names its spans estimator.<family>[_stats].
	for _, f := range residentCycle {
		layerMetrics["estimator."+f.String()] = layerMetric{"estimator." + f.String() + "_us", time.Microsecond}
	}
	for _, f := range statsCycle {
		layerMetrics["estimator."+f.String()+"_stats"] = layerMetric{"estimator." + f.String() + "_stats_us", time.Microsecond}
	}
}

// profiler accumulates the traced run's recorders, metrics and failures.
type profiler struct {
	o       opts
	epoch   time.Time
	recs    []*recorder
	metrics map[string]metric
	st      runStats // attempted and failed operations across all paths
}

func (p *profiler) recorder() *recorder {
	r := newRecorder(len(p.recs), p.epoch)
	p.recs = append(p.recs, r)
	return r
}

func (p *profiler) set(name string, v float64, unit string) { p.metrics[name] = metric{v, unit} }

// phaseOps sizes one phase: a quarter of the run at the nominal rate.
func (p *profiler) phaseOps(rate float64, min int) int {
	return max(min, int(rate*float64(p.o.seconds)/4))
}

// phase records one phase's throughput and median latency for workload.
func (p *profiler) phase(workload string, traced bool, lat []time.Duration, wall time.Duration) {
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	p.set(fmt.Sprintf("%s.%s_ops_per_s", workload, kind), float64(len(lat))/wall.Seconds(), "1/s")
	p.set(fmt.Sprintf("%s.%s_p50_ms", workload, kind), percentile(millis(lat), 0.5), "ms")
}

// absorb adds a phase's operation counts and failures.
func (p *profiler) absorb(st *runStats) {
	p.st.attempted += st.attempted
	p.st.failed += st.failed
	p.st.checkFails = append(p.st.checkFails, st.checkFails...)
}

func runProfile(o opts, tracePath string) (*result, error) {
	p := &profiler{o: o, epoch: time.Now(), metrics: make(map[string]metric)}
	for _, path := range []func() error{p.release, p.queries, p.ingest} {
		if err := path(); err != nil {
			return nil, err
		}
	}
	if err := writeSpans(tracePath, p.recs); err != nil {
		return nil, err
	}
	totals := make(map[string]layerTotal)
	for _, r := range p.recs {
		for name, t := range selfTimes(r.spans) {
			sum := totals[name]
			sum.self += t.self
			sum.calls += t.calls
			totals[name] = sum
		}
	}
	for name, lm := range layerMetrics {
		unit := "ms"
		if lm.unit == time.Microsecond {
			unit = "us"
		}
		p.set(lm.metric, totals[name].mean(lm.unit), unit)
	}
	p.st.report()
	return &result{Correct: p.st.failed == 0, Attempted: p.st.attempted, Failed: p.st.failed, Metrics: p.metrics}, nil
}

// meanDur is the mean of ds in unit.
func meanDur(ds []time.Duration, unit time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / float64(unit)
}

// release profiles the release path. The traced op's spans give the
// cleaning, pack and statistics layers; a replay of PrivatizeJob's stages
// gives csvio and privacy, and Run's remainder is core's chunk commit.
func (p *profiler) release() error {
	r, err := newReleaser(p.o, releaseRows)
	if err != nil {
		return err
	}
	st := &runStats{}
	defer p.absorb(st)
	var want [32]byte
	out, err := r.op(filepath.Join(p.o.dir, "release-setup"), nil, 0)
	if err == nil {
		err = r.check(out, &want)
	}
	if err != nil {
		return err
	}
	os.RemoveAll(out.dir)
	n := p.phaseOps(releaseRate, 2)
	rec := p.recorder()
	for _, traced := range []bool{false, true} {
		var lat, commits []time.Duration
		var wall time.Duration
		for i := 0; i < n; i++ {
			st.attempted++
			t0 := time.Now()
			var out releaseOut
			var err error
			if traced {
				out, err = r.op(filepath.Join(p.o.dir, "release"), rec, i)
			} else {
				out, err = r.op(filepath.Join(p.o.dir, "release"), nil, i)
			}
			d := time.Since(t0)
			if err == nil && traced {
				var stages time.Duration
				stages, err = r.replay(out.dir, rec, i)
				commits = append(commits, rec.dur(out.coreRun)-stages)
			}
			wall += time.Since(t0)
			if err == nil {
				err = r.check(out, &want)
			}
			if err == nil && traced {
				var info os.FileInfo
				if info, err = os.Stat(out.pcol); err == nil {
					p.set("colstore.bytes_per_row", float64(info.Size())/float64(r.rows), "B/row")
				}
			}
			if err != nil {
				st.fail("release %d: %v", i, err)
				continue
			}
			lat = append(lat, d)
			os.RemoveAll(out.dir)
		}
		p.phase("release", traced, lat, wall)
		if traced {
			p.set("core.commit_ms", meanDur(commits, time.Millisecond), "ms")
		}
	}
	return nil
}

// queries profiles both query paths over one prepared view.
func (p *profiler) queries() error {
	sv, err := prepareServed(p.o)
	if err != nil {
		return err
	}
	h, err := startHost()
	if err != nil {
		return err
	}
	defer h.close()
	for _, qw := range []queryWorkload{residentWorkload, statsWorkload} {
		if err := p.queryPath(qw, sv, h); err != nil {
			return err
		}
	}
	return nil
}

func (p *profiler) queryPath(qw queryWorkload, sv *served, h *host) error {
	name := "query-resident"
	if qw.isStat {
		name = "query-stats"
	}
	n := p.phaseOps(qw.rate, 50)
	stream, prefix, err := queryStream(p.o.seed, 2*n*qw.perOp, qw.cycle, sv.sections, sv.instructors, qw.isStat)
	if err != nil {
		return err
	}
	plan := newQueryPlan(stream, prefix)
	st := &runStats{}
	defer p.absorb(st)
	qs, err := qw.setup(p.o, sv, plan, h, 1, st)
	if err != nil {
		return err
	}
	defer qs.close()
	rp, err := qs.replayer()
	if err != nil {
		return err
	}
	// The replayer answers the warm-up prefix and the untraced phase in
	// stream order before the traced phase, so its cache holds what the
	// server's holds when the traced phase starts.
	mid := prefix + n*qw.perOp
	if err := qs.expect(rp, mid, st); err != nil {
		return err
	}
	untraced := newWork(qw.path, plan, plan.ids[prefix:mid])
	var loop queryLoop
	wall := loop.run(h, plan, untraced, nil, nil)
	phase := &runStats{}
	loop.collectInto(phase, len(untraced.bodies))
	p.phase(name, false, phase.lat, wall)
	p.absorb(phase)

	rp.calls, rp.misses = 0, 0
	traced := newWork(qw.path, plan, plan.ids[mid:])
	recs := make([]*recorder, serveClients)
	for c := range recs {
		recs[c] = p.recorder()
	}
	wall = loop.run(h, plan, traced, rp, recs)
	phase = &runStats{}
	loop.collectInto(phase, len(traced.bodies))
	p.phase(name, true, phase.lat, wall)
	p.absorb(phase)
	var overhead []time.Duration
	for _, o := range loop.overhead {
		overhead = append(overhead, o...)
	}
	if qw.isStat {
		p.set("server.overhead_us", meanDur(overhead, time.Microsecond), "us")
	} else {
		p.set("estimator.channel_miss_ratio", float64(rp.misses)/float64(rp.calls), "ratio")
		p.set("estimator.cache_entries", float64(rp.cacheEntries()), "count")
	}
	return nil
}

// ingest profiles the collector. The traced phase replays each acked batch
// through decode, canonical encode, and append+sync on a scratch WAL, and
// folds each window into a scratch store that started from the same
// checkpoint, so the fold sees the same number of folded batch IDs.
func (p *profiler) ingest() error {
	n := p.phaseOps(ingestRate, 2*ingestWindow)
	in, err := prepareIngest(p.o, 2*n)
	if err != nil {
		return err
	}
	st := &runStats{}
	defer p.absorb(st)
	fp := privacy.MechanismFingerprint(in.meta)
	rec := p.recorder()
	for k := 0; k < 3; k++ {
		s := rec.start("collect.open_store", 0, k)
		_, err := collect.OpenStore(filepath.Join(in.template, collect.StoreFileName), in.schema, fp)
		rec.end(s)
		if err != nil {
			return err
		}
	}
	h, err := startHost()
	if err != nil {
		return err
	}
	defer h.close()
	svc, _, err := in.restart(filepath.Join(p.o.dir, "collect"))
	if err != nil {
		return err
	}
	h.set(svc.Handler())
	timed := in.timed()

	untraced := newIngestLoop(h, timed[:n])
	wall := untraced.run()
	phase := &runStats{}
	untraced.collectInto(phase)
	p.phase("ingest", false, phase.lat, wall)
	p.absorb(phase)
	var reads []time.Duration
	for _, r := range untraced.stats {
		reads = append(reads, r...)
	}
	p.set("ingest.queryable_ms", percentile(millis(reads), 0.5), "ms")

	scratch := filepath.Join(p.o.dir, "scratch")
	if err := copyTree(in.template, scratch); err != nil {
		return err
	}
	os.RemoveAll(filepath.Join(scratch, collect.WALDirName))
	store, err := collect.OpenStore(filepath.Join(scratch, collect.StoreFileName), in.schema, fp)
	if err != nil {
		return err
	}
	var folded [][]byte
	for _, b := range in.batches[ingestSeeded : ingestSeeded+ingestUnfolded] {
		folded = append(folded, b.body)
	}
	for i, b := range untraced.batches {
		if untraced.acked[i] {
			folded = append(folded, b.body)
		}
	}
	if _, err := store.Fold(store.AppliedSeq()+1, folded); err != nil {
		return err
	}
	wal, err := collect.Open(filepath.Join(scratch, collect.WALDirName), collect.Options{Policy: collect.SyncNever})
	if err != nil {
		return err
	}
	defer wal.Close()

	tracedLoop := newIngestLoop(h, timed[n:])
	recs := make([]*recorder, ingestClients)
	overhead := make([][]time.Duration, ingestClients)
	for c := range recs {
		recs[c] = p.recorder()
	}
	var foldMu sync.Mutex
	tracedLoop.after = func(c, i int, d time.Duration, window int) {
		rec := recs[c]
		if window >= 0 {
			lo := window * ingestWindow
			payloads := make([][]byte, 0, ingestWindow)
			for _, b := range tracedLoop.batches[lo:min(lo+ingestWindow, len(tracedLoop.batches))] {
				payloads = append(payloads, b.body)
			}
			foldMu.Lock()
			s := rec.start("collect.fold", 0, i)
			_, err := store.Fold(store.AppliedSeq()+1, payloads)
			rec.end(s)
			foldMu.Unlock()
			if err == nil {
				s = rec.start("collect.marshal", 0, i)
				_, err = store.MarshalStats()
				rec.end(s)
			}
			if err != nil {
				tracedLoop.errs[c] = append(tracedLoop.errs[c], fmt.Sprintf("scratch fold: %v", err))
			}
			return
		}
		body := tracedLoop.batches[i].body
		ids := [4]int{}
		ids[0] = rec.start("collect.decode", 0, i)
		var b collect.Batch
		err := json.Unmarshal(body, &b)
		rec.end(ids[0])
		var payload []byte
		if err == nil {
			ids[1] = rec.start("collect.encode", 0, i)
			payload, err = json.Marshal(collect.Batch{ID: b.ID, Mechanism: b.Mechanism, Reports: b.Reports, TraceID: b.TraceID})
			rec.end(ids[1])
		}
		if err == nil {
			ids[2] = rec.start("collect.wal_append", 0, i)
			_, err = wal.Append(payload)
			rec.end(ids[2])
		}
		if err == nil {
			ids[3] = rec.start("collect.fsync", 0, i)
			err = wal.Sync()
			rec.end(ids[3])
		}
		if err != nil {
			tracedLoop.errs[c] = append(tracedLoop.errs[c], fmt.Sprintf("scratch replay: %v", err))
			return
		}
		for _, id := range ids {
			d -= rec.dur(id)
		}
		overhead[c] = append(overhead[c], d)
	}
	wall = tracedLoop.run()
	phase = &runStats{}
	tracedLoop.collectInto(phase)
	p.phase("ingest", true, phase.lat, wall)
	p.absorb(phase)

	var all []time.Duration
	for _, o := range overhead {
		all = append(all, o...)
	}
	p.set("collect.http_overhead_us", meanDur(all, time.Microsecond), "us")
	p.set("collect.wal_bytes_per_report", float64(wal.DiskBytes())/float64(len(all)*ingestBatch), "B/report")
	info, err := os.Stat(filepath.Join(scratch, collect.StoreFileName))
	if err != nil {
		return err
	}
	p.set("collect.checkpoint_bytes", float64(info.Size()), "B")

	acked := append(append([]bool(nil), untraced.acked...), tracedLoop.acked...)
	if err := in.checkCollected(h, acked); err != nil {
		st.fail("ingest: %v", err)
	}
	return shutdown(svc)
}

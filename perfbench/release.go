package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"privateclean/internal/atomicio"
	"privateclean/internal/cleaning"
	"privateclean/internal/colstore"
	"privateclean/internal/core"
	"privateclean/internal/csvio"
	"privateclean/internal/estimator"
	"privateclean/internal/privacy"
	"privateclean/internal/provenance"
)

// Release workload sizes.
const (
	releaseRows   = 200_000
	releaseRate   = 1.0 // nominal releases per second
	releaseSetups = 3
)

// fdRepair is the cleaning every workload applies: section -> instructor,
// which restores nulled instructors and yields the weighted provenance
// graph.
var fdRepair = cleaning.FDRepair{LHS: []string{"section"}, RHS: "instructor"}

// collectOpts records the released bin layout and the section x instructor
// joint, as `pc stats -meta -conj section,instructor` does.
func collectOpts(meta *privacy.ViewMeta) estimator.CollectOpts {
	opts := estimator.CollectOpts{
		BinEdges: make(map[string][]float64),
		Joints:   [][2]string{{"section", "instructor"}},
	}
	for name, nm := range meta.Numeric {
		if edges := nm.BinEdges(); edges != nil {
			opts.BinEdges[name] = edges
		}
	}
	return opts
}

// releaser runs the pre-serving pipeline on one generated input CSV.
type releaser struct {
	input  string
	rows   int
	seed   int64
	params privacy.Params
}

func newReleaser(o opts, rows int) (*releaser, error) {
	rel, err := dataset(o.seed, rows)
	if err != nil {
		return nil, err
	}
	input := filepath.Join(o.dir, "input.csv")
	if err := csvio.WriteFile(input, rel); err != nil {
		return nil, err
	}
	return &releaser{input: input, rows: rows, seed: derive(o.seed, streamPrivatize), params: releaseParams(rel.Schema())}, nil
}

// releaseOut is what one release left on disk, for the checks.
type releaseOut struct {
	dir, view, meta, prov, pcol string
	cleanedRows, statsRows      int
	coreRun                     int // span id of PrivatizeJob.Run (traced runs)
}

// op runs one release into a fresh directory: PrivatizeJob.Run (in memory,
// the CLI default), load the view, FD repair with provenance, write the
// cleaned CSV and provenance, pack, and collect statistics.
func (r *releaser) op(dir string, rec *recorder, opID int) (out releaseOut, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return out, err
	}
	out = releaseOut{
		dir:  dir,
		view: filepath.Join(dir, "view.csv"),
		meta: filepath.Join(dir, "meta.json"),
		prov: filepath.Join(dir, "prov.json"),
		pcol: filepath.Join(dir, "cleaned.pcol"),
	}
	root := rec.start("release.op", 0, opID)
	defer rec.end(root)

	out.coreRun = rec.start("core.run", root, opID)
	job := &core.PrivatizeJob{In: r.input, Out: out.view, MetaPath: out.meta, Params: r.params, Seed: r.seed, Workers: runtime.GOMAXPROCS(0)}
	res, err := job.Run()
	rec.end(out.coreRun)
	if err != nil {
		return out, err
	}

	s := rec.start("csvio.read_view", root, opID)
	rel, _, err := csvio.ReadFileWithReport(out.view, csvio.Options{})
	rec.end(s)
	if err != nil {
		return out, err
	}

	prov := provenance.NewStore()
	s = rec.start("cleaning.fd_repair", root, opID)
	err = cleaning.Apply(&cleaning.Context{Rel: rel, Prov: prov, Meta: res.Meta}, fdRepair)
	rec.end(s)
	if err != nil {
		return out, err
	}
	s = rec.start("csvio.write_cleaned", root, opID)
	err = csvio.WriteFile(filepath.Join(dir, "cleaned.csv"), rel)
	rec.end(s)
	if err != nil {
		return out, err
	}
	s = rec.start("provenance.save", root, opID)
	err = atomicio.WriteJSON(out.prov, prov)
	rec.end(s)
	if err != nil {
		return out, err
	}
	out.cleanedRows = rel.NumRows()

	s = rec.start("colstore.write", root, opID)
	_, err = colstore.WriteFile(out.pcol, rel)
	rec.end(s)
	if err != nil {
		return out, err
	}

	s = rec.start("estimator.collect", root, opID)
	coll, err := estimator.NewCollectorWith(collectOpts(res.Meta))
	if err == nil {
		err = coll.Add(rel)
	}
	rec.end(s)
	if err != nil {
		return out, err
	}
	out.statsRows = coll.Statistics().Rows
	return out, nil
}

// replay times the stages PrivatizeJob.Run performs internally, through
// their own public entry points: reading the input, privatizing it at
// GOMAXPROCS workers, and writing a view. The remainder of Run's time is
// chunk commit (checkpoints, fsyncs, finalize).
func (r *releaser) replay(dir string, rec *recorder, opID int) (time.Duration, error) {
	root := rec.start("release.replay", 0, opID)
	defer rec.end(root)
	s := rec.start("csvio.read", root, opID)
	rel, _, err := csvio.ReadFileWithReport(r.input, csvio.Options{})
	rec.end(s)
	if err != nil {
		return 0, err
	}
	read := rec.dur(s)
	s = rec.start("privacy.privatize", root, opID)
	view, _, err := privacy.PrivatizeParallel(r.seed, rel, r.params, runtime.GOMAXPROCS(0))
	rec.end(s)
	if err != nil {
		return 0, err
	}
	priv := rec.dur(s)
	s = rec.start("csvio.write", root, opID)
	err = csvio.WriteFile(filepath.Join(dir, "replay.csv"), view)
	rec.end(s)
	return read + priv + rec.dur(s), err
}

// digest hashes the released view and metadata bytes.
func (out releaseOut) digest() ([32]byte, error) {
	view, err := os.ReadFile(out.view)
	if err != nil {
		return [32]byte{}, err
	}
	meta, err := os.ReadFile(out.meta)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(append(append(view, 0), meta...)), nil
}

// check verifies one release against the first one of the run.
func (r *releaser) check(out releaseOut, want *[32]byte) error {
	got, err := out.digest()
	if err != nil {
		return err
	}
	if *want == ([32]byte{}) {
		*want = got
	} else if !bytes.Equal(got[:], want[:]) {
		return fmt.Errorf("release view/meta bytes differ from the run's first release")
	}
	if out.cleanedRows != r.rows || out.statsRows != r.rows {
		return fmt.Errorf("release rows: cleaned %d, statistics %d, input %d", out.cleanedRows, out.statsRows, r.rows)
	}
	return nil
}

func runRelease(o opts) (*runStats, error) {
	r, err := newReleaser(o, releaseRows)
	if err != nil {
		return nil, err
	}
	st := &runStats{}
	var want [32]byte
	// Set-up is the process's first release, taken several times.
	for k := 0; k < releaseSetups; k++ {
		runtime.GC() // every release begins from a collected heap
		t0 := time.Now()
		out, err := r.op(filepath.Join(o.dir, fmt.Sprintf("setup-%d", k)), nil, k)
		st.setups = append(st.setups, time.Since(t0))
		if err != nil {
			return nil, err
		}
		if err := r.check(out, &want); err != nil {
			return nil, err
		}
		os.RemoveAll(out.dir)
	}
	n := o.ops(releaseRate, 4)
	for i := 0; i < n; i++ {
		st.attempted++
		runtime.GC()
		mark := memMark()
		t0 := time.Now()
		out, err := r.op(filepath.Join(o.dir, fmt.Sprintf("op-%d", i)), nil, i)
		d := time.Since(t0)
		st.allocBytes += memMark() - mark
		st.wall += d
		if err != nil {
			st.fail("release %d: %v", i, err)
			continue
		}
		st.lat = append(st.lat, d)
		if err := r.check(out, &want); err != nil {
			st.fail("release %d: %v", i, err)
		}
		os.RemoveAll(out.dir)
	}
	st.liveHeap = liveHeap()
	return st, nil
}

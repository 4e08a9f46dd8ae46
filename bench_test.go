// Package privateclean_test holds the benchmark harness that regenerates
// every table and figure of the paper's evaluation (one benchmark per
// experiment id; see DESIGN.md's experiment index) plus micro-benchmarks of
// the core primitives.
//
// Figure benchmarks run the corresponding experiment driver once per
// iteration with a reduced trial count and report the mean error (%) of the
// Direct and PrivateClean estimators at the sweep's last point as custom
// metrics, so `go test -bench` output doubles as a compact reproduction of
// the figure's right edge. Run cmd/experiments for the full tables.
package privateclean_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"privateclean/internal/cleaning"
	"privateclean/internal/colstore"
	"privateclean/internal/core"
	"privateclean/internal/csvio"
	"privateclean/internal/dist"
	"privateclean/internal/estimator"
	"privateclean/internal/experiments"
	"privateclean/internal/privacy"
	"privateclean/internal/provenance"
	"privateclean/internal/query"
	"privateclean/internal/relation"
	"privateclean/internal/stats"
	"privateclean/internal/textutil"
	"privateclean/internal/workload"
)

// benchConfig keeps figure benchmarks affordable; the experiment drivers
// themselves default to the paper's 100-trial protocol.
func benchConfig() experiments.Config {
	cfg := experiments.Default()
	cfg.Trials = 5
	return cfg
}

// reportLastPoint publishes the final sweep point of the named series as
// benchmark metrics.
func reportLastPoint(b *testing.B, t *experiments.Table, series ...string) {
	b.Helper()
	if len(t.Points) == 0 {
		b.Fatal("no points")
	}
	last := t.Points[len(t.Points)-1]
	for _, s := range series {
		if v, ok := last.Values[s]; ok {
			// testing.B metric units must be whitespace-free.
			unit := strings.ReplaceAll(s, " ", "-") + "-err-%"
			b.ReportMetric(v, unit)
		}
	}
}

func benchFigure(b *testing.B, f func(experiments.Config) ([]*experiments.Table, error), idx int, series ...string) {
	b.Helper()
	cfg := benchConfig()
	var tables []*experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tables, err = f(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportLastPoint(b, tables[idx], series...)
}

// ---- Figure/table reproductions (experiment index of DESIGN.md) ----------

func BenchmarkFigure2a(b *testing.B) {
	benchFigure(b, experiments.Figure2, 0, experiments.SeriesDirect, experiments.SeriesPrivateClean)
}

func BenchmarkFigure2b(b *testing.B) {
	benchFigure(b, experiments.Figure2, 1, experiments.SeriesDirect, experiments.SeriesPrivateClean)
}

func BenchmarkFigure2c(b *testing.B) {
	benchFigure(b, experiments.Figure2, 2, experiments.SeriesDirect, experiments.SeriesPrivateClean)
}

func BenchmarkFigure2d(b *testing.B) {
	benchFigure(b, experiments.Figure2, 3, experiments.SeriesDirect, experiments.SeriesPrivateClean)
}

func BenchmarkFigure3a(b *testing.B) {
	benchFigure(b, experiments.Figure3, 0, experiments.SeriesDirect, experiments.SeriesPrivateClean)
}

func BenchmarkFigure3b(b *testing.B) {
	benchFigure(b, experiments.Figure3, 1, experiments.SeriesDirect, experiments.SeriesPrivateClean)
}

func BenchmarkFigure4(b *testing.B) {
	benchFigure(b, experiments.Figure4, 0, experiments.SeriesDirect, experiments.SeriesPrivateClean)
}

func BenchmarkFigure5(b *testing.B) {
	benchFigure(b, experiments.Figure5, 1, experiments.SeriesDirect, experiments.SeriesPCNoProv, experiments.SeriesPrivateClean)
}

func BenchmarkFigure6(b *testing.B) {
	benchFigure(b, experiments.Figure6, 1, experiments.SeriesDirect, experiments.SeriesPCNoProv, experiments.SeriesPrivateClean)
}

func BenchmarkFigure7(b *testing.B) {
	benchFigure(b, experiments.Figure7, 0, experiments.SeriesDirect, experiments.SeriesPCUnweighted, experiments.SeriesPCWeighted)
}

func BenchmarkFigure8a(b *testing.B) {
	cfg := benchConfig()
	cfg.Trials = 2
	var tables []*experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tables, err = experiments.Figure8(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportLastPoint(b, tables[0], experiments.SeriesDirect, experiments.SeriesPrivateClean)
}

func BenchmarkFigure8b(b *testing.B) {
	cfg := benchConfig()
	cfg.Trials = 2
	var tables []*experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tables, err = experiments.Figure8(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportLastPoint(b, tables[1], experiments.SeriesDirect, experiments.SeriesPrivateClean)
}

func BenchmarkFigure9(b *testing.B) {
	benchFigure(b, experiments.Figure9, 1, experiments.SeriesDirect, experiments.SeriesPrivateClean)
}

func BenchmarkFigure10(b *testing.B) {
	cfg := benchConfig()
	cfg.Trials = 2
	var tables []*experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tables, err = experiments.Figure10(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportLastPoint(b, tables[0],
		experiments.SeriesDirect, experiments.SeriesPrivateClean, experiments.SeriesDirtyNoPriv)
}

func BenchmarkFigure11(b *testing.B) {
	cfg := benchConfig()
	cfg.Trials = 2
	var tables []*experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tables, err = experiments.Figure11(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportLastPoint(b, tables[0], experiments.SeriesDirect, experiments.SeriesPrivateClean)
}

func BenchmarkTheorem2(b *testing.B) {
	cfg := benchConfig()
	cfg.Trials = 20
	var table *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		table, err = experiments.Theorem2Validation(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(table.Points[0].Values["empirical P[all] %"], "preserved-%")
}

func BenchmarkAblationSum(b *testing.B) {
	cfg := benchConfig()
	cfg.Trials = 10
	var table *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		table, err = experiments.AblationSumComplement(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := table.Points[len(table.Points)-1]
	b.ReportMetric(last.Values[experiments.SeriesSumComplement], "full-err-%")
	b.ReportMetric(last.Values[experiments.SeriesSumNaive], "naive-err-%")
}

func BenchmarkAblationProvenance(b *testing.B) {
	cfg := benchConfig()
	var table *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		table, err = experiments.AblationProvenanceCost(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := table.Points[len(table.Points)-1]
	b.ReportMetric(last.Values["weighted edges/value"], "weighted-edges/value")
}

func BenchmarkTuner(b *testing.B) {
	cfg := benchConfig()
	cfg.Trials = 10
	var table *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		table, err = experiments.TunerValidation(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(table.Points[0].Values["within target %"], "within-target-%")
}

// ---- Micro-benchmarks of the core primitives ------------------------------

func benchSynthetic(b *testing.B, s int) *relation.Relation {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	r, err := workload.Synthetic(rng, workload.SyntheticConfig{S: s})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func BenchmarkPrivatize10k(b *testing.B) {
	r := benchSynthetic(b, 10000)
	params := privacy.Uniform(r.Schema(), 0.1, 10)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := privacy.Privatize(rng, r, params); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(10000*b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkRandomizedResponse100k(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	col := make([]string, 100000)
	domain := make([]string, 50)
	for i := range domain {
		domain[i] = workload.CategoryValue(i)
	}
	for i := range col {
		col[i] = domain[i%50]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := privacy.RandomizedResponse(rng, col, domain, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLaplaceSample(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += stats.Laplace(rng, 0, 10)
	}
	_ = acc
}

func BenchmarkCountEstimate10k(b *testing.B) {
	r := benchSynthetic(b, 10000)
	rng := rand.New(rand.NewSource(5))
	v, meta, err := privacy.Privatize(rng, r, privacy.Uniform(r.Schema(), 0.1, 10))
	if err != nil {
		b.Fatal(err)
	}
	est := &estimator.Estimator{Meta: meta}
	pred := estimator.In("category", workload.CategoryValue(0), workload.CategoryValue(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Count(v, pred); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSumEstimate10k(b *testing.B) {
	r := benchSynthetic(b, 10000)
	rng := rand.New(rand.NewSource(6))
	v, meta, err := privacy.Privatize(rng, r, privacy.Uniform(r.Schema(), 0.1, 10))
	if err != nil {
		b.Fatal(err)
	}
	est := &estimator.Estimator{Meta: meta}
	pred := estimator.In("category", workload.CategoryValue(0), workload.CategoryValue(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Sum(v, "value", pred); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOneShotEstimates100k measures the estimators with no
// ChannelCache attached — the path the CLI and the experiments take, which
// builds every table it reads on each call.
func BenchmarkOneShotEstimates100k(b *testing.B) {
	r := benchSynthetic(b, 100000)
	rng := rand.New(rand.NewSource(6))
	v, meta, err := privacy.Privatize(rng, r, privacy.Uniform(r.Schema(), 0.1, 10))
	if err != nil {
		b.Fatal(err)
	}
	est := &estimator.Estimator{Meta: meta}
	one := estimator.Eq("category", workload.CategoryValue(0))
	in := estimator.In("category", workload.CategoryValue(0), workload.CategoryValue(3))
	cases := []struct {
		name string
		run  func() error
	}{
		{"Sum", func() error { _, err := est.Sum(v, "value", in); return err }},
		{"Avg", func() error { _, err := est.Avg(v, "value", in); return err }},
		{"DirectSum", func() error { _, err := est.Nominal().Sum(v, "value", in); return err }},
		{"DirectAvg", func() error { _, err := est.Nominal().Avg(v, "value", in); return err }},
		{"TotalSum", func() error { _, err := est.TotalSum(v, "value"); return err }},
		{"GroupSums", func() error { _, err := est.GroupSums(v, "category", "value"); return err }},
		{"MedianEq", func() error { _, err := est.Median(v, "value", one); return err }},
		{"MedianIn", func() error { _, err := est.Median(v, "value", in); return err }},
		{"MedianAll", func() error { _, err := est.Median(v, "value", estimator.Predicate{}); return err }},
		{"DirectMedianIn", func() error { _, err := est.Nominal().Median(v, "value", in); return err }},
		{"VarIn", func() error { _, err := est.Var(v, "value", in); return err }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := c.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkProvenanceSelectivity(b *testing.B) {
	domain := make([]string, 1000)
	for i := range domain {
		domain[i] = workload.CategoryValue(i)
	}
	g := provenance.NewGraph("d", domain)
	g.ApplyDeterministic(func(v string) string {
		if v < workload.CategoryValue(500) {
			return "low"
		}
		return v
	})
	pred := func(v string) bool { return v == "low" }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Selectivity(pred) != 500 {
			b.Fatal("wrong cut")
		}
	}
}

func BenchmarkFDRepair10k(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	r, err := workload.CustomerAddress(rng, workload.TPCDSConfig{Rows: 10000})
	if err != nil {
		b.Fatal(err)
	}
	if err := workload.CorruptStates(rng, r, 500, 20); err != nil {
		b.Fatal(err)
	}
	repair := cleaning.FDRepair{LHS: []string{"ca_city", "ca_county"}, RHS: "ca_state"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := r.Clone()
		if err := cleaning.Apply(&cleaning.Context{Rel: work}, repair); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMDRepair(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	r, err := workload.CustomerAddress(rng, workload.TPCDSConfig{Rows: 5000})
	if err != nil {
		b.Fatal(err)
	}
	if err := workload.CorruptCountries(rng, r, 300); err != nil {
		b.Fatal(err)
	}
	repair := cleaning.MDRepair{Attr: "ca_country", MaxDist: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := r.Clone()
		if err := cleaning.Apply(&cleaning.Context{Rel: work}, repair); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrivatizeScaling validates that GRR is linear in the dataset
// size (the provider-side cost of releasing a view).
func BenchmarkPrivatizeScaling(b *testing.B) {
	for _, size := range []int{1000, 10000, 100000} {
		b.Run(fmtSize(size), func(b *testing.B) {
			r := benchSynthetic(b, size)
			params := privacy.Uniform(r.Schema(), 0.1, 10)
			rng := rand.New(rand.NewSource(11))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := privacy.Privatize(rng, r, params); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size*b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkEstimateScaling validates that the corrected count estimator is
// linear in the relation size (Propositions 3/4 put the provenance part at
// O(l'); the scan dominates).
func BenchmarkEstimateScaling(b *testing.B) {
	for _, size := range []int{1000, 10000, 100000} {
		b.Run(fmtSize(size), func(b *testing.B) {
			r := benchSynthetic(b, size)
			rng := rand.New(rand.NewSource(12))
			v, meta, err := privacy.Privatize(rng, r, privacy.Uniform(r.Schema(), 0.1, 10))
			if err != nil {
				b.Fatal(err)
			}
			est := &estimator.Estimator{Meta: meta}
			pred := estimator.In("category", workload.CategoryValue(0), workload.CategoryValue(2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := est.Count(v, pred); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size*b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkIntelWirelessFullScale exercises the paper's actual IntelWireless
// scale (2.3M rows) end to end: generate, privatize, clean, query.
func BenchmarkIntelWirelessFullScale(b *testing.B) {
	if testing.Short() {
		b.Skip("full-scale dataset in short mode")
	}
	rng := rand.New(rand.NewSource(13))
	r, err := workload.IntelWireless(rng, workload.IntelWirelessConfig{Rows: 2_300_000})
	if err != nil {
		b.Fatal(err)
	}
	valid := workload.ValidSensorIDs(68)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, meta, err := privacy.Privatize(rng, r, privacy.Uniform(r.Schema(), 0.2, 2))
		if err != nil {
			b.Fatal(err)
		}
		prov := provenance.NewStore()
		ctx := &cleaning.Context{Rel: v, Prov: prov, Meta: meta}
		err = cleaning.Apply(ctx, cleaning.NullifyInvalid{
			Attr:  "sensor_id",
			Valid: func(id string) bool { return valid[id] },
		})
		if err != nil {
			b.Fatal(err)
		}
		est := &estimator.Estimator{Meta: meta, Prov: prov}
		pred := estimator.NotEq("sensor_id", relation.Null)
		if _, err := est.Count(v, pred); err != nil {
			b.Fatal(err)
		}
		if _, err := est.Avg(v, "temp", pred); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(2_300_000*b.N)/b.Elapsed().Seconds(), "rows/s")
}

func fmtSize(n int) string {
	switch {
	case n >= 1_000_000:
		return "2300k"
	case n >= 1000:
		return fmt.Sprintf("%dk", n/1000)
	default:
		return fmt.Sprintf("%d", n)
	}
}

func BenchmarkCSVRoundTrip10k(b *testing.B) {
	r := benchSynthetic(b, 10000)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := csvio.Write(&buf, r); err != nil {
			b.Fatal(err)
		}
		if _, err := csvio.Read(bytes.NewReader(buf.Bytes()), csvio.Options{
			ForceKinds: map[string]relation.Kind{"category": relation.Discrete},
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(10000*b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkSessionSaveLoad(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	r := benchSynthetic(b, 5000)
	provider := core.NewProvider(r)
	view, err := provider.Release(rng, privacy.Uniform(r.Schema(), 0.1, 10))
	if err != nil {
		b.Fatal(err)
	}
	analyst := core.NewAnalyst(view)
	if err := analyst.Clean(cleaning.FindReplace{Attr: "category", From: workload.CategoryValue(1), To: workload.CategoryValue(0)}); err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := analyst.Save(dir); err != nil {
			b.Fatal(err)
		}
		if _, err := core.LoadSession(dir); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLevenshtein(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if textutil.Levenshtein("United States", "United Statesx") != 1 {
			b.Fatal("wrong distance")
		}
	}
}

func BenchmarkQueryParse(b *testing.B) {
	src := "SELECT avg(score) FROM evals WHERE major IN ('Mechanical Engineering', 'EECS', 'Math')"
	for i := 0; i < b.N; i++ {
		if _, err := query.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZipfSample(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	zipf, err := dist.NewZipf(1000, 2)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		_ = zipf.Sample(rng)
	}
}

// BenchmarkPrivatizeJob measures the end-to-end checkpointed privatize
// pipeline — CSV load, chunked GRR with per-chunk checkpoint writes, atomic
// finalize — the path `privateclean privatize` takes.
func BenchmarkPrivatizeJob(b *testing.B) {
	dir := b.TempDir()
	r := benchSynthetic(b, 5000)
	in := filepath.Join(dir, "data.csv")
	if err := csvio.WriteFile(in, r); err != nil {
		b.Fatal(err)
	}
	params := privacy.Uniform(r.Schema(), 0.15, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := &core.PrivatizeJob{
			In:         in,
			Out:        filepath.Join(dir, "private.csv"),
			MetaPath:   filepath.Join(dir, "meta.json"),
			Params:     params,
			Seed:       7,
			ChunkSize:  1024,
			ForceKinds: map[string]relation.Kind{"category": relation.Discrete},
		}
		res, err := job.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows != 5000 {
			b.Fatalf("rows = %d", res.Rows)
		}
	}
	b.ReportMetric(float64(5000*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkPrivatizeParallel measures the in-memory sharded privatizer at
// one worker and at GOMAXPROCS; the two emit byte-identical views, so the
// delta is pure parallel speedup.
func BenchmarkPrivatizeParallel(b *testing.B) {
	r := benchSynthetic(b, 100000)
	params := privacy.Uniform(r.Schema(), 0.1, 10)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := privacy.PrivatizeParallel(int64(i), r, params, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(100000*b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkPrivatizeJobWorkers is the end-to-end chunked pipeline at one
// worker and at GOMAXPROCS (same released bytes either way).
func BenchmarkPrivatizeJobWorkers(b *testing.B) {
	r := benchSynthetic(b, 5000)
	params := privacy.Uniform(r.Schema(), 0.15, 0.5)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			dir := b.TempDir()
			in := filepath.Join(dir, "data.csv")
			if err := csvio.WriteFile(in, r); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job := &core.PrivatizeJob{
					In:         in,
					Out:        filepath.Join(dir, "private.csv"),
					MetaPath:   filepath.Join(dir, "meta.json"),
					Params:     params,
					Seed:       7,
					ChunkSize:  1024,
					Workers:    workers,
					ForceKinds: map[string]relation.Kind{"category": relation.Discrete},
				}
				if _, err := job.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(5000*b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// ---- Columnar store vs CSV (docs/PERFORMANCE.md load/query table) ---------

// benchViewFiles privatizes a synthetic view once and materializes it as
// both CSV and .pcol, returning the two paths plus the release metadata.
func benchViewFiles(b *testing.B, rows int) (csvPath, colPath string, meta *privacy.ViewMeta) {
	b.Helper()
	dir := b.TempDir()
	r := benchSynthetic(b, rows)
	rng := rand.New(rand.NewSource(17))
	v, meta, err := privacy.Privatize(rng, r, privacy.Uniform(r.Schema(), 0.1, 10))
	if err != nil {
		b.Fatal(err)
	}
	csvPath = filepath.Join(dir, "view.csv")
	if err := csvio.WriteFile(csvPath, v); err != nil {
		b.Fatal(err)
	}
	colPath = filepath.Join(dir, "view.pcol")
	if _, err := colstore.WriteFile(colPath, v); err != nil {
		b.Fatal(err)
	}
	return csvPath, colPath, meta
}

// BenchmarkLoadCSV measures the query/serve startup cost on the CSV path:
// parse, type-infer, and materialize a 100k-row view.
func BenchmarkLoadCSV(b *testing.B) {
	csvPath, _, _ := benchViewFiles(b, 100000)
	opts := csvio.Options{ForceKinds: map[string]relation.Kind{"category": relation.Discrete}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := csvio.ReadFile(csvPath, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(100000*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkLoadColstore is the same startup on the .pcol path: mmap the
// file and adopt its columns and dictionary encodings without parsing.
func BenchmarkLoadColstore(b *testing.B) {
	_, colPath, _ := benchViewFiles(b, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view, err := colstore.Open(colPath)
		if err != nil {
			b.Fatal(err)
		}
		if view.Relation().NumRows() != 100000 {
			b.Fatal("short view")
		}
		if err := view.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(100000*b.N)/b.Elapsed().Seconds(), "rows/s")
}

// benchQueryBackend runs the corrected count+sum workload of the estimator
// micro-benchmarks against an already-loaded relation.
func benchQueryBackend(b *testing.B, r *relation.Relation, meta *privacy.ViewMeta) {
	b.Helper()
	// A warm cache, as on the resident server: the first pair of calls
	// builds what the measured ones read.
	est := &estimator.Estimator{Meta: meta, Cache: estimator.NewChannelCache()}
	pred := estimator.In("category", workload.CategoryValue(0), workload.CategoryValue(3))
	if _, err := est.Sum(r, "value", pred); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Count(r, pred); err != nil {
			b.Fatal(err)
		}
		if _, err := est.Sum(r, "value", pred); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryCSV / BenchmarkQueryColstore pin the per-query cost on the
// two backings. The estimates are bit-identical (see
// colstore_identity_test.go); the pair exists so a regression on either
// backing is visible in BENCH_pipeline.json.
func BenchmarkQueryCSV(b *testing.B) {
	csvPath, _, meta := benchViewFiles(b, 100000)
	r, err := csvio.ReadFile(csvPath, csvio.Options{ForceKinds: map[string]relation.Kind{"category": relation.Discrete}})
	if err != nil {
		b.Fatal(err)
	}
	benchQueryBackend(b, r, meta)
}

func BenchmarkQueryColstore(b *testing.B) {
	_, colPath, meta := benchViewFiles(b, 100000)
	view, err := colstore.Open(colPath)
	if err != nil {
		b.Fatal(err)
	}
	defer view.Close()
	benchQueryBackend(b, view.Relation(), meta)
}

// BenchmarkConjResident pins the cost of a two-attribute conjunction
// (count and avg) over a resident 100k-row view of 1000 zipf sections and
// 50 instructors. cold builds both joint tables (count-only and value) in
// every iteration, as a one-shot CLI query does; warm folds the tables a
// serving cache already holds.
func BenchmarkConjResident(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	r, err := workload.MultiAttr(rng, workload.MultiAttrConfig{S: 100000, Sections: 1000, Instructors: 50, Z: 1.1})
	if err != nil {
		b.Fatal(err)
	}
	v, meta, err := privacy.Privatize(rng, r, privacy.Uniform(r.Schema(), 0.1, 10))
	if err != nil {
		b.Fatal(err)
	}
	preds := []estimator.Predicate{
		estimator.In("section", workload.SectionValue(0), workload.SectionValue(7)),
		estimator.In("instructor", workload.InstructorValue(0), workload.InstructorValue(1)),
	}
	query := func(b *testing.B, est *estimator.Estimator) {
		if _, err := est.CountConj(v, preds...); err != nil {
			b.Fatal(err)
		}
		if _, err := est.AvgConj(v, "value", preds...); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			query(b, &estimator.Estimator{Meta: meta, Cache: estimator.NewChannelCache()})
		}
	})
	b.Run("warm", func(b *testing.B) {
		est := &estimator.Estimator{Meta: meta, Cache: estimator.NewChannelCache()}
		query(b, est)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			query(b, est)
		}
	})
}

// BenchmarkLevenshteinBounded exercises the banded DP on a far pair (early
// exit) and a near pair (full band).
func BenchmarkLevenshteinBounded(b *testing.B) {
	near := [2]string{"United States", "United Statesx"}
	far := [2]string{"United States", "Commonwealth of Australia"}
	b.Run("near", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			textutil.LevenshteinBounded(near[0], near[1], 2)
		}
	})
	b.Run("far", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			textutil.LevenshteinBounded(far[0], far[1], 2)
		}
	})
}

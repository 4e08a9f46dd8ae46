// Command privateclean is the end-to-end CLI for the PrivateClean workflow:
//
//	privateclean privatize -in data.csv -out private.csv -meta meta.json -p 0.1 -b 10
//	privateclean tune      -in data.csv -error 0.05
//	privateclean minsize   -n 25 -p 0.25 -alpha 0.05
//	privateclean clean     -in private.csv -out cleaned.csv -meta meta.json -prov prov.json -op 'replace:major:Mech. Eng.:Mechanical Engineering'
//	privateclean query     -in cleaned.csv -meta meta.json -prov prov.json "SELECT count(1) FROM R WHERE major = 'Mechanical Engineering'"
//
// The provider runs privatize (and optionally tune); the analyst runs clean
// and query. Metadata and provenance files carry the state between steps.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"privateclean/internal/atomicio"
	"privateclean/internal/cleaning"
	"privateclean/internal/colstore"
	"privateclean/internal/core"
	"privateclean/internal/csvio"
	"privateclean/internal/estimator"
	"privateclean/internal/faults"
	"privateclean/internal/privacy"
	"privateclean/internal/provenance"
	"privateclean/internal/query"
	"privateclean/internal/relation"
	"privateclean/internal/stats"
	"privateclean/internal/telemetry"
)

// logDest is where structured logs go; tests substitute a buffer.
var logDest io.Writer = os.Stderr

func main() {
	err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "privateclean:", err)
	}
	// The error taxonomy maps to distinct exit codes (see docs/ROBUSTNESS.md)
	// so scripts can distinguish "bad flags" from "corrupt checkpoint".
	os.Exit(faults.ExitCode(err))
}

func run(args []string) (err error) {
	// A panic anywhere in a subcommand becomes a classified internal error
	// instead of a bare stack trace and exit code 2 from the runtime.
	defer func() {
		if r := recover(); r != nil {
			err = faults.Recover(r)
		}
	}()
	if len(args) == 0 {
		usage()
		return faults.Errorf(faults.ErrUsage, "missing subcommand")
	}
	switch args[0] {
	case "privatize":
		return cmdPrivatize(args[1:])
	case "tune":
		return cmdTune(args[1:])
	case "minsize":
		return cmdMinSize(args[1:])
	case "epsilon":
		return cmdEpsilon(args[1:])
	case "explain":
		return cmdExplain(args[1:])
	case "describe":
		return cmdDescribe(args[1:])
	case "clean":
		return cmdClean(args[1:])
	case "stats":
		return cmdStats(args[1:])
	case "pack":
		return cmdPack(args[1:])
	case "query":
		return cmdQuery(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "collect":
		return cmdCollect(args[1:])
	case "report":
		return cmdReport(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return faults.Errorf(faults.ErrUsage, "unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: privateclean <subcommand> [flags]

subcommands:
  privatize  apply Generalized Randomized Response to a CSV (provider side)
  tune       derive GRR parameters from a target count-query error (Appendix E)
  minsize    Theorem 2 dataset-size bound for domain preservation
  epsilon    allocate a total epsilon budget across attributes (Sec. 4.2.3)
  clean      apply cleaning operations to a private CSV, recording provenance
  stats      stream a private CSV into sufficient statistics for count/sum/avg
  pack       convert a CSV to the .pcol binary columnar format for -col loading
  query      estimate a sum/count/avg query on a (cleaned) private CSV
  serve      run a long-lived HTTP query service over one private view
  collect    run a crash-safe WAL-backed ingestion service for LDP reports
  report     randomize a raw CSV locally and ship it to a collector in batches
  explain    show the channel parameters (p, N, l, tau) behind a query
  describe   profile a CSV: per-column kind, distinct counts, ranges

run 'privateclean <subcommand> -h' for flags`)
}

// telFlags bundles the observability flags every subcommand shares:
// structured-log level and format, a metrics snapshot output, and the
// durable JSONL trace sink.
type telFlags struct {
	level, format        *string
	metricsOut, traceOut *string
	set                  *telemetry.Set
	sink                 *telemetry.TraceSink
}

func addTelFlags(fs *flag.FlagSet) *telFlags {
	return &telFlags{
		level:      fs.String("log-level", "warn", "log level: debug | info | warn | error"),
		format:     fs.String("log-format", "text", "log format: text | json"),
		metricsOut: fs.String("metrics-out", "", "write a metrics snapshot on exit (Prometheus text; a .json path gets expvar-style JSON)"),
		traceOut:   fs.String("trace-out", "", "append completed spans to this JSONL trace sink (one span per line with trace/span/parent IDs; survives crashes and accumulates across runs)"),
	}
}

// setup builds the telemetry set from the flags and installs it as the
// process default, so instrumentation inside csvio/cleaning/query reports
// through it too. When -trace-out is set, the JSONL sink is opened up front
// so spans export as they complete — a later crash loses at most the spans
// still open at that instant, and Flush covers even those at exit.
func (tf *telFlags) setup() (*telemetry.Set, error) {
	lvl, err := telemetry.ParseLevel(*tf.level)
	if err != nil {
		return nil, err
	}
	format, err := telemetry.ParseFormat(*tf.format)
	if err != nil {
		return nil, err
	}
	red := telemetry.NewRedactor()
	tf.set = &telemetry.Set{
		Log:     telemetry.NewLogger(logDest, lvl, format, red),
		Metrics: telemetry.NewRegistry(red),
		Trace:   telemetry.NewTracer(red),
		Redact:  red,
	}
	if *tf.traceOut != "" {
		sink, err := telemetry.OpenTraceSink(*tf.traceOut)
		if err != nil {
			return nil, err
		}
		tf.sink = sink
		tf.set.Trace.SetSink(sink)
	}
	telemetry.SetDefault(tf.set)
	return tf.set, nil
}

// finish runs at command exit, preferring the command's own error over a
// snapshot-write failure. Use as: defer tf.finish(&err).
func (tf *telFlags) finish(err *error) {
	if ferr := tf.flush(); ferr != nil && *err == nil {
		*err = ferr
	}
}

// flush writes the metrics snapshot and drains the trace sink (exporting
// any spans still open, then fsync+close). It runs on failure too — the
// diagnostics matter most when a run dies.
func (tf *telFlags) flush() error {
	if tf.set == nil {
		return nil
	}
	if *tf.metricsOut != "" {
		if err := tf.set.Metrics.SnapshotTo(*tf.metricsOut); err != nil {
			return err
		}
	}
	if tf.sink != nil {
		ferr := tf.set.Trace.Flush()
		if cerr := tf.sink.Close(); ferr == nil {
			ferr = cerr
		}
		tf.sink = nil
		if ferr != nil {
			return ferr
		}
	}
	return nil
}

// csvFlags bundles the flags every CSV-reading subcommand shares: forced
// column kinds and the malformed-row policy.
type csvFlags struct {
	forceDiscrete *string
	onRowError    *string
	quarantine    *string
}

func addCSVFlags(fs *flag.FlagSet) *csvFlags {
	return &csvFlags{
		forceDiscrete: fs.String("discrete", "", "comma-separated columns to force discrete"),
		onRowError:    fs.String("on-row-error", "fail", "malformed-row policy: fail | skip | quarantine"),
		quarantine:    fs.String("quarantine", "", "sidecar CSV for quarantined rows (default <in>"+csvio.QuarantineFileSuffix+")"),
	}
}

func (cf *csvFlags) forceKinds() map[string]relation.Kind {
	kinds := map[string]relation.Kind{}
	if *cf.forceDiscrete != "" {
		for _, name := range strings.Split(*cf.forceDiscrete, ",") {
			kinds[strings.TrimSpace(name)] = relation.Discrete
		}
	}
	return kinds
}

func (cf *csvFlags) policy() (csvio.RowErrorPolicy, error) {
	return csvio.ParseRowErrorPolicy(*cf.onRowError)
}

func (cf *csvFlags) quarantinePath(in string) string {
	if *cf.quarantine != "" {
		return *cf.quarantine
	}
	return in + csvio.QuarantineFileSuffix
}

// options are the load options the flags select, with the process
// telemetry allowed to name path.
func (cf *csvFlags) options(path string) (csvio.Options, error) {
	policy, err := cf.policy()
	if err != nil {
		return csvio.Options{}, err
	}
	tel := telemetry.Default()
	tel.Redact.Allow(path)
	return csvio.Options{ForceKinds: cf.forceKinds(), OnRowError: policy, Tel: tel}, nil
}

// read runs one row-policy scan of path — a load or a profile — with the
// selected options. A lossy scan is reported as a structured Warn by csvio
// through the installed logger, so it is never silent and honors
// -log-format json. The quarantine sidecar, when that policy is on, lands
// atomically: a crash mid-scan cannot tear it, and a failed scan leaves a
// pre-existing sidecar untouched.
func (cf *csvFlags) read(path string, scan func(csvio.Options) error) error {
	opts, err := cf.options(path)
	if err != nil {
		return err
	}
	if opts.OnRowError != csvio.RowErrorQuarantine {
		return scan(opts)
	}
	qpath := cf.quarantinePath(path)
	opts.Tel.Redact.Allow(qpath)
	return atomicio.WriteFileKeep(qpath, func(w io.Writer) error {
		opts.Quarantine = w
		return scan(opts)
	})
}

// load reads a CSV into memory under the selected row policy.
func (cf *csvFlags) load(path string) (r *relation.Relation, err error) {
	err = cf.read(path, func(opts csvio.Options) (err error) {
		r, _, err = csvio.ReadFileWithReport(path, opts)
		return err
	})
	return r, err
}

// profile runs the bounded-memory profile scans of a CSV under the selected
// row policy, for tuning and for csvio.NewChunkIterator passes over it.
func (cf *csvFlags) profile(path string) (prof *csvio.Profile, err error) {
	err = cf.read(path, func(opts csvio.Options) (err error) {
		prof, err = csvio.ProfileFile(path, opts)
		return err
	})
	return prof, err
}

// viewFlags bundles the flags of the subcommands that answer queries from a
// private view: exactly one of -in, -col or -stats, plus the view's
// metadata, provenance and interval confidence.
type viewFlags struct {
	in, metaPath, provPath, statsPath, colPath *string
	confidence                                 *float64
}

func addViewFlags(fs *flag.FlagSet) *viewFlags {
	return &viewFlags{
		in:         fs.String("in", "", "cleaned private CSV (required unless -stats or -col)"),
		metaPath:   fs.String("meta", "", "view metadata JSON (required)"),
		provPath:   fs.String("prov", "", "provenance JSON (optional)"),
		statsPath:  fs.String("stats", "", "sufficient-statistics JSON from 'privateclean stats' (alternative to -in)"),
		colPath:    fs.String("col", "", ".pcol columnar file from 'privateclean pack' (alternative to -in; opened via mmap, no parsing)"),
		confidence: fs.Float64("confidence", 0.95, "confidence level for intervals"),
	}
}

// ok reports whether the metadata and exactly one input are named.
func (vf *viewFlags) ok() bool {
	return countSet(*vf.in, *vf.statsPath, *vf.colPath) == 1 && *vf.metaPath != ""
}

// paths lists the file flags, for the redaction allow-list.
func (vf *viewFlags) paths() []string {
	return []string{*vf.in, *vf.metaPath, *vf.provPath, *vf.statsPath, *vf.colPath}
}

// open loads the named input as a query source, then the metadata and the
// provenance (nil without -prov). done releases a .pcol mapping: call it
// only once no query can still read the source.
func (vf *viewFlags) open(cf *csvFlags) (src query.Source, meta *privacy.ViewMeta, prov *provenance.Store, done func(), err error) {
	done = func() {}
	switch {
	case *vf.statsPath != "":
		src.Stats, err = readStats(*vf.statsPath)
	case *vf.colPath != "":
		var view *colstore.View
		if view, err = colstore.Open(*vf.colPath); err == nil {
			src.Rel, done = view.Relation(), func() { view.Close() }
		}
	default:
		src.Rel, err = cf.load(*vf.in)
	}
	if err == nil {
		meta, err = readMeta(*vf.metaPath)
	}
	if err == nil && *vf.provPath != "" {
		prov, err = readProv(*vf.provPath)
	}
	if err != nil {
		done()
		return query.Source{}, nil, nil, func() {}, err
	}
	return src, meta, prov, done, nil
}

// readMeta loads and validates released view metadata; anything wrong with
// it — unreadable, undecodable, or inconsistent — is a metadata fault.
func readMeta(path string) (*privacy.ViewMeta, error) {
	meta := &privacy.ViewMeta{}
	if err := readJSON(path, meta); err != nil {
		return nil, faults.Wrap(faults.ErrBadMeta, err)
	}
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	return meta, nil
}

// readProv loads a provenance store; decode-time validation lives in the
// store's UnmarshalJSON.
func readProv(path string) (*provenance.Store, error) {
	prov := provenance.NewStore()
	if err := readJSON(path, prov); err != nil {
		return nil, faults.Wrap(faults.ErrBadMeta, err)
	}
	return prov, nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

func cmdPrivatize(args []string) (err error) {
	fs := flag.NewFlagSet("privatize", flag.ContinueOnError)
	in := fs.String("in", "", "input CSV (required)")
	out := fs.String("out", "", "output CSV for the private view (required)")
	metaPath := fs.String("meta", "", "output JSON for the view metadata (required)")
	p := fs.Float64("p", 0.1, "randomization probability for discrete attributes")
	b := fs.Float64("b", 10, "Laplace scale for numeric attributes")
	mechanism := fs.String("mechanism", "", "discrete LDP mechanism: "+strings.Join(privacy.MechanismNames(), ", ")+" (default grr)")
	bins := fs.Int("bins", privacy.DefaultBins, "bin count released per numeric attribute for binned-histogram estimation (quantiles, GROUP BY bin); 0 releases none")
	targetErr := fs.Float64("error", 0, "if > 0, tune p and b from this count-error target instead")
	confidence := fs.Float64("confidence", 0.95, "confidence level for tuning")
	seed := fs.Int64("seed", 1, "RNG seed")
	chunk := fs.Int("chunk", core.DefaultChunkSize, "rows privatized per checkpointed chunk")
	workers := fs.Int("workers", 0, "chunks privatized concurrently (0 = GOMAXPROCS; output is identical at any value)")
	checkpoint := fs.String("checkpoint", "", "checkpoint path (default <out>.ckpt)")
	resume := fs.Bool("resume", false, "resume an interrupted run from its checkpoint")
	ledger := fs.String("ledger", "", "epsilon-budget ledger JSON (default <in>"+telemetry.LedgerFileSuffix+"; 'off' disables)")
	memBudget := fs.String("mem-budget", "", "memory budget (bytes; k/m/g suffixes) sizing chunks when -chunk is unset")
	cf := addCSVFlags(fs)
	tf := addTelFlags(fs)
	if err := fs.Parse(args); err != nil {
		return faults.Wrap(faults.ErrUsage, err)
	}
	if *in == "" || *out == "" || *metaPath == "" {
		return faults.Errorf(faults.ErrUsage, "privatize: -in, -out, and -meta are required")
	}
	if err := privacy.MechanismByName(*mechanism); err != nil {
		return faults.Errorf(faults.ErrUsage, "privatize: %v", err)
	}
	budget, err := parseBytes(*memBudget)
	if err != nil {
		return faults.Errorf(faults.ErrUsage, "privatize: -mem-budget: %v", err)
	}
	chunkSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "chunk" {
			chunkSet = true
		}
	})
	tel, err := tf.setup()
	if err != nil {
		return err
	}
	defer tf.finish(&err)
	ledgerPath := *ledger
	switch ledgerPath {
	case "":
		ledgerPath = *in + telemetry.LedgerFileSuffix
	case "off":
		ledgerPath = ""
	}
	opts, err := cf.options(*in)
	if err != nil {
		return err
	}
	// The parameters need the schema, which the kind scan alone resolves:
	// the job's own read is then the one profile that decodes rows, writes
	// the quarantine sidecar and reports a lossy load. Tuning from -error
	// needs the row count and the numeric ranges, so it profiles the input
	// first.
	var params privacy.Params
	if *targetErr > 0 {
		prof, err := cf.profile(*in)
		if err != nil {
			return err
		}
		if params, err = tuneProfile(prof, *targetErr, *confidence); err != nil {
			return err
		}
	} else {
		schema, err := csvio.ReadSchema(*in, opts)
		if err != nil {
			return err
		}
		params = privacy.Uniform(schema, *p, *b)
	}
	params.Mechanism = *mechanism
	params.Bins = *bins
	chunkSize := *chunk
	if budget > 0 && !chunkSet {
		chunkSize = 0 // derived from the budget and the profiled row geometry
	}
	job := &core.PrivatizeJob{
		In:             *in,
		Out:            *out,
		MetaPath:       *metaPath,
		CheckpointPath: *checkpoint,
		Params:         params,
		Seed:           *seed,
		ChunkSize:      chunkSize,
		Workers:        *workers,
		ForceKinds:     opts.ForceKinds,
		OnRowError:     opts.OnRowError,
		QuarantinePath: *cf.quarantine,
		Resume:         *resume,
		Tel:            tel,
		LedgerPath:     ledgerPath,
		MemBudget:      budget,
	}
	res, err := job.Run()
	if err != nil {
		return err
	}
	meta := res.Meta
	if res.ResumedFrom > 0 {
		fmt.Printf("resumed from chunk %d of %d\n", res.ResumedFrom, res.Chunks)
	}
	fmt.Printf("privatize ok: rows=%d chunks=%d resumed-from=%d quarantined=%d wall=%s\n",
		res.Rows, res.Chunks, res.ResumedFrom, res.Quarantined, res.Wall.Round(time.Millisecond))
	fmt.Printf("released %d rows; total epsilon = %.4f\n", res.Rows, meta.TotalEpsilon())
	for _, name := range sortedKeys(meta.Discrete) {
		m := meta.Discrete[name]
		if mech := privacy.CanonicalMechanismName(m.Mechanism); mech != privacy.MechGRR {
			fmt.Printf("  discrete %-16s p=%.4f N=%d eps=%.4f mechanism=%s\n", m.Name, m.P, m.N(), m.Epsilon(), mech)
		} else {
			fmt.Printf("  discrete %-16s p=%.4f N=%d eps=%.4f\n", m.Name, m.P, m.N(), m.Epsilon())
		}
	}
	for _, name := range sortedKeys(meta.Numeric) {
		m := meta.Numeric[name]
		fmt.Printf("  numeric  %-16s b=%.4f delta=%.4f eps=%.4f\n", m.Name, m.B, m.Delta, m.Epsilon())
	}
	if res.Ledger != nil {
		note := ""
		if res.Ledger.Duplicate {
			note = " (duplicate release: no new spend)"
		}
		fmt.Printf("budget ledger %s: composed eps=%.4f cumulative eps=%.4f%s\n",
			ledgerPath, res.Ledger.Composed, res.CumulativeEpsilon, note)
	}
	return nil
}

// parseBytes reads a byte count with an optional k/m/g (or kb/mb/gb) suffix.
// Empty means zero (no budget).
func parseBytes(s string) (int64, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	s = strings.TrimSuffix(s, "b")
	switch {
	case strings.HasSuffix(s, "k"):
		mult, s = 1<<10, strings.TrimSuffix(s, "k")
	case strings.HasSuffix(s, "m"):
		mult, s = 1<<20, strings.TrimSuffix(s, "m")
	case strings.HasSuffix(s, "g"):
		mult, s = 1<<30, strings.TrimSuffix(s, "g")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte count %q", s)
	}
	if n <= 0 {
		return 0, fmt.Errorf("byte count must be > 0, got %d", n)
	}
	return n * mult, nil
}

// countSet counts the non-empty strings among the mutually exclusive input
// flags.
func countSet(vals ...string) int {
	n := 0
	for _, v := range vals {
		if v != "" {
			n++
		}
	}
	return n
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func cmdTune(args []string) (err error) {
	fs := flag.NewFlagSet("tune", flag.ContinueOnError)
	in := fs.String("in", "", "input CSV (required)")
	targetErr := fs.Float64("error", 0.05, "target maximum count-query fraction error")
	confidence := fs.Float64("confidence", 0.95, "confidence level")
	cf := addCSVFlags(fs)
	tf := addTelFlags(fs)
	if err := fs.Parse(args); err != nil {
		return faults.Wrap(faults.ErrUsage, err)
	}
	if *in == "" {
		return faults.Errorf(faults.ErrUsage, "tune: -in is required")
	}
	tel, err := tf.setup()
	if err != nil {
		return err
	}
	defer tf.finish(&err)
	sp := tel.Trace.StartSpan(nil, "tune")
	defer sp.End()
	prof, err := cf.profile(*in)
	if err != nil {
		return err
	}
	params, err := tuneProfile(prof, *targetErr, *confidence)
	if err != nil {
		return err
	}
	printDiscreteParams(prof.Domains, params)
	return nil
}

// tuneProfile is privacy.Tune over a profile's schema, rows and ranges.
func tuneProfile(prof *csvio.Profile, targetErr, confidence float64) (privacy.Params, error) {
	schema, err := prof.Schema()
	if err != nil {
		return privacy.Params{}, err
	}
	return privacy.Tune(schema, prof.Rows, prof.Deltas, targetErr, confidence)
}

// printDiscreteParams reports tuned/allocated per-attribute parameters over
// the discrete domains they were tuned for. Discrete attributes show two
// epsilons: eps_exact = ln(N(1-p)/p + 1), the channel's true local-DP
// parameter and the one privatize reports and the ledger composes, and
// eps_lemma1 = ln(3/p - 2), the paper's Lemma 1 constant, reproduced for
// comparison (exact only at N = 3).
func printDiscreteParams(domains map[string][]string, params privacy.Params) {
	for _, name := range sortedKeys(params.P) {
		p := params.P[name]
		n := len(domains[name])
		fmt.Printf("discrete %-16s p=%.4f (eps_lemma1=%.4f eps_exact=%.4f N=%d)\n",
			name, p, privacy.EpsilonDiscrete(p), privacy.EpsilonDiscreteExact(p, n), n)
	}
	for _, name := range sortedKeys(params.B) {
		fmt.Printf("numeric  %-16s b=%.4f\n", name, params.B[name])
	}
}

func cmdMinSize(args []string) (err error) {
	fs := flag.NewFlagSet("minsize", flag.ContinueOnError)
	n := fs.Int("n", 0, "number of distinct values (required)")
	p := fs.Float64("p", 0.1, "randomization probability")
	alpha := fs.Float64("alpha", 0.05, "failure probability (domain preserved w.p. 1-alpha)")
	tf := addTelFlags(fs)
	if err := fs.Parse(args); err != nil {
		return faults.Wrap(faults.ErrUsage, err)
	}
	if *n <= 0 {
		return faults.Errorf(faults.ErrUsage, "minsize: -n is required")
	}
	if _, err := tf.setup(); err != nil {
		return err
	}
	defer tf.finish(&err)
	s, err := privacy.MinDatasetSize(*n, *p, *alpha)
	if err != nil {
		return err
	}
	fmt.Printf("S > %.0f rows for all %d values to survive p=%.2f with probability %.2f\n",
		s, *n, *p, 1-*alpha)
	return nil
}

func cmdEpsilon(args []string) (err error) {
	fs := flag.NewFlagSet("epsilon", flag.ContinueOnError)
	in := fs.String("in", "", "input CSV (required)")
	eps := fs.Float64("eps", 1, "total privacy budget to allocate")
	cf := addCSVFlags(fs)
	tf := addTelFlags(fs)
	if err := fs.Parse(args); err != nil {
		return faults.Wrap(faults.ErrUsage, err)
	}
	if *in == "" {
		return faults.Errorf(faults.ErrUsage, "epsilon: -in is required")
	}
	tel, err := tf.setup()
	if err != nil {
		return err
	}
	defer tf.finish(&err)
	sp := tel.Trace.StartSpan(nil, "epsilon")
	defer sp.End()
	prof, err := cf.profile(*in)
	if err != nil {
		return err
	}
	schema, err := prof.Schema()
	if err != nil {
		return err
	}
	params, err := privacy.AllocateEpsilon(schema, prof.Domains, prof.Deltas, *eps)
	if err != nil {
		return err
	}
	printDiscreteParams(prof.Domains, params)
	return nil
}

func cmdDescribe(args []string) (err error) {
	fs := flag.NewFlagSet("describe", flag.ContinueOnError)
	in := fs.String("in", "", "input CSV (required)")
	cf := addCSVFlags(fs)
	tf := addTelFlags(fs)
	if err := fs.Parse(args); err != nil {
		return faults.Wrap(faults.ErrUsage, err)
	}
	if *in == "" {
		return faults.Errorf(faults.ErrUsage, "describe: -in is required")
	}
	tel, err := tf.setup()
	if err != nil {
		return err
	}
	defer tf.finish(&err)
	sp := tel.Trace.StartSpan(nil, "describe")
	defer sp.End()
	r, err := cf.load(*in)
	if err != nil {
		return err
	}
	fmt.Printf("%d rows\n", r.NumRows())
	for _, c := range r.Schema().Columns() {
		switch c.Kind {
		case relation.Discrete:
			n, err := r.DomainSize(c.Name)
			if err != nil {
				return err
			}
			frac := 0.0
			if r.NumRows() > 0 {
				frac = float64(n) / float64(r.NumRows())
			}
			// Theorem 2 guidance: how far randomization can go at this size.
			note := ""
			if bound, err := privacy.MinDatasetSize(n, 0.25, 0.05); err == nil && float64(r.NumRows()) < bound {
				note = fmt.Sprintf("  (below the Theorem 2 size %d for p=0.25)", int(bound)+1)
			}
			fmt.Printf("  discrete %-16s distinct=%d (%.1f%% of rows)%s\n", c.Name, n, frac*100, note)
		case relation.Numeric:
			col := r.MustNumeric(c.Name)
			lo, hi, err := stats.MinMax(col)
			if err != nil {
				fmt.Printf("  numeric  %-16s (all missing)\n", c.Name)
				continue
			}
			mean, _ := stats.Mean(col)
			fmt.Printf("  numeric  %-16s min=%.4g max=%.4g mean=%.4g delta=%.4g\n",
				c.Name, lo, hi, mean, hi-lo)
		}
	}
	return nil
}

func cmdExplain(args []string) (err error) {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	metaPath := fs.String("meta", "", "view metadata JSON (required)")
	provPath := fs.String("prov", "", "provenance JSON (optional)")
	tf := addTelFlags(fs)
	if err := fs.Parse(args); err != nil {
		return faults.Wrap(faults.ErrUsage, err)
	}
	sql := strings.Join(fs.Args(), " ")
	if *metaPath == "" || sql == "" {
		return faults.Errorf(faults.ErrUsage, "explain: -meta and a SQL string are required")
	}
	tel, err := tf.setup()
	if err != nil {
		return err
	}
	defer tf.finish(&err)
	tel.Redact.Allow(*metaPath, *provPath)
	sp := tel.Trace.StartSpan(nil, "explain")
	defer sp.End()
	meta, err := readMeta(*metaPath)
	if err != nil {
		return err
	}
	var prov *provenance.Store
	if *provPath != "" {
		if prov, err = readProv(*provPath); err != nil {
			return err
		}
	}
	ex, err := core.ExplainQuery(sql, meta, prov, nil)
	if err != nil {
		return err
	}
	fmt.Println(ex)
	return nil
}

// parseOp turns a CLI op spec into a cleaning.Op. Supported specs:
//
//	replace:<attr>:<from>:<to>       find-and-replace one value
//	md:<attr>:<maxdist>              matching-dependency repair
//	fd:<lhs1,lhs2,...>:<rhs>         functional-dependency repair
//	fdimpute:<lhs1,...>:<rhs>        FD-based null imputation
//	nullify:<attr>:<v1,v2,...>       merge all values NOT in the list to NULL
func parseOp(spec string) (cleaning.Op, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 {
		return nil, fmt.Errorf("bad op spec %q", spec)
	}
	switch parts[0] {
	case "replace":
		if len(parts) != 4 {
			return nil, fmt.Errorf("replace needs attr:from:to, got %q", spec)
		}
		return cleaning.FindReplace{Attr: parts[1], From: parts[2], To: parts[3]}, nil
	case "md":
		if len(parts) != 3 {
			return nil, fmt.Errorf("md needs attr:maxdist, got %q", spec)
		}
		d, err := strconv.Atoi(parts[2])
		if err != nil {
			return nil, fmt.Errorf("md distance: %w", err)
		}
		return cleaning.MDRepair{Attr: parts[1], MaxDist: d}, nil
	case "fd":
		if len(parts) != 3 {
			return nil, fmt.Errorf("fd needs lhs:rhs, got %q", spec)
		}
		return cleaning.FDRepair{LHS: strings.Split(parts[1], ","), RHS: parts[2]}, nil
	case "fdimpute":
		if len(parts) != 3 {
			return nil, fmt.Errorf("fdimpute needs lhs:rhs, got %q", spec)
		}
		return cleaning.FDImpute{LHS: strings.Split(parts[1], ","), RHS: parts[2]}, nil
	case "nullify":
		if len(parts) != 3 {
			return nil, fmt.Errorf("nullify needs attr:valid values, got %q", spec)
		}
		valid := map[string]bool{}
		for _, v := range strings.Split(parts[2], ",") {
			valid[v] = true
		}
		return cleaning.NullifyInvalid{Attr: parts[1], Valid: func(v string) bool { return valid[v] }}, nil
	default:
		return nil, fmt.Errorf("unknown op kind %q", parts[0])
	}
}

type opList []cleaning.Op

func (o *opList) String() string { return fmt.Sprintf("%d ops", len(*o)) }

func (o *opList) Set(spec string) error {
	op, err := parseOp(spec)
	if err != nil {
		return err
	}
	*o = append(*o, op)
	return nil
}

func cmdClean(args []string) (err error) {
	fs := flag.NewFlagSet("clean", flag.ContinueOnError)
	in := fs.String("in", "", "input private CSV (required)")
	out := fs.String("out", "", "output cleaned CSV (required)")
	metaPath := fs.String("meta", "", "view metadata JSON from privatize (required)")
	provPath := fs.String("prov", "", "provenance JSON (read if present, always written) (required)")
	var ops opList
	fs.Var(&ops, "op", "cleaning op spec (repeatable): replace:a:f:t | md:a:d | fd:l1,l2:r | fdimpute:l:r | nullify:a:v1,v2")
	cf := addCSVFlags(fs)
	tf := addTelFlags(fs)
	if err := fs.Parse(args); err != nil {
		return faults.Wrap(faults.ErrUsage, err)
	}
	if *in == "" || *out == "" || *metaPath == "" || *provPath == "" {
		return faults.Errorf(faults.ErrUsage, "clean: -in, -out, -meta, and -prov are required")
	}
	if len(ops) == 0 {
		return faults.Errorf(faults.ErrUsage, "clean: at least one -op is required")
	}
	tel, err := tf.setup()
	if err != nil {
		return err
	}
	defer tf.finish(&err)
	tel.Redact.Allow(*in, *out, *metaPath, *provPath)
	meta, err := readMeta(*metaPath)
	if err != nil {
		return err
	}
	prov := provenance.NewStore()
	if _, statErr := os.Stat(*provPath); statErr == nil {
		if prov, err = readProv(*provPath); err != nil {
			return err
		}
	}
	// The clean reads its input in windows: a profile, then one pass per
	// global op and the write pass. The profiled domains are the dirty
	// domains of the attributes the metadata lacks.
	prof, err := cf.profile(*in)
	if err != nil {
		return err
	}
	ctx := &cleaning.Context{Domains: prof.Domains, Prov: prov, Meta: meta, Tel: tel}
	open := func() (relation.Iterator, error) { return csvio.NewChunkIterator(*in, prof, relation.DefaultWindow) }
	ctx.Span = tel.Trace.StartSpan(nil, "clean", telemetry.A("ops", len(ops)), telemetry.A("rows", prof.Rows))
	err = writeCleaned(*out, ctx, open, ops)
	ctx.Span.End()
	if err != nil {
		return err
	}
	psp := tel.Trace.StartSpan(nil, "provenance_save", telemetry.A("attrs", len(prov.Attrs())))
	err = atomicio.WriteJSON(*provPath, prov)
	psp.End()
	if err != nil {
		return err
	}
	tel.Log.Info("clean finished", "ops", len(ops), "rows", prof.Rows, "tracked_attrs", len(prov.Attrs()))
	fmt.Printf("applied %d ops; provenance tracks %d attribute(s)\n", len(ops), len(prov.Attrs()))
	return nil
}

// writeCleaned cleans the windows open yields into out, which lands
// atomically: a failed clean leaves an existing out untouched.
func writeCleaned(out string, ctx *cleaning.Context, open func() (relation.Iterator, error), ops []cleaning.Op) error {
	return atomicio.WriteFileKeep(out, func(w io.Writer) error {
		_, err := cleaning.StreamApply(ctx, open, w, ops...)
		return err
	})
}

// conjList collects repeated -conj "a,b" attribute pairs.
type conjList [][2]string

func (c *conjList) String() string { return fmt.Sprintf("%d pairs", len(*c)) }

func (c *conjList) Set(spec string) error {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return fmt.Errorf("want two comma-separated attributes, got %q", spec)
	}
	a, b := strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
	if a == "" || b == "" {
		return fmt.Errorf("want two comma-separated attributes, got %q", spec)
	}
	*c = append(*c, [2]string{a, b})
	return nil
}

// cmdStats streams a (cleaned) private CSV once and writes the sufficient
// statistics for count/sum/avg estimation — per-value counts and per-value
// numeric sums plus one-pass moments — so query and serve can answer without
// the relation.
func cmdStats(args []string) (err error) {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	in := fs.String("in", "", "cleaned private CSV (required)")
	out := fs.String("out", "", "output statistics JSON (required)")
	metaPath := fs.String("meta", "", "view metadata JSON; collects binned histograms under the released bin layout (enables quantile queries over the statistics)")
	bins := fs.Int("bins", 0, "override the released bin count (requires -meta; 0 keeps the released layout)")
	var conj conjList
	fs.Var(&conj, "conj", "discrete attribute pair 'a,b' to record a pairwise joint for (repeatable; enables AND conjunctions over the statistics)")
	cf := addCSVFlags(fs)
	tf := addTelFlags(fs)
	if err := fs.Parse(args); err != nil {
		return faults.Wrap(faults.ErrUsage, err)
	}
	if *in == "" || *out == "" {
		return faults.Errorf(faults.ErrUsage, "stats: -in and -out are required")
	}
	if *metaPath == "" && *bins != 0 {
		return faults.Errorf(faults.ErrUsage, "stats: -bins needs -meta (the bin span comes from the released metadata)")
	}
	opts := estimator.CollectOpts{Joints: conj}
	if *metaPath != "" {
		meta, err := readMeta(*metaPath)
		if err != nil {
			return err
		}
		opts.BinEdges = make(map[string][]float64, len(meta.Numeric))
		for name, nm := range meta.Numeric {
			if *bins > 0 {
				nm.Bins = *bins
			}
			if edges := nm.BinEdges(); edges != nil {
				opts.BinEdges[name] = edges
			}
		}
		if len(opts.BinEdges) == 0 {
			return faults.Errorf(faults.ErrBadMeta,
				"stats: the metadata releases no bin layout; re-run 'privateclean privatize' with -bins, or pass -bins here to impose one")
		}
	}
	tel, err := tf.setup()
	if err != nil {
		return err
	}
	defer tf.finish(&err)
	tel.Redact.Allow(*in, *out, *metaPath)
	prof, err := cf.profile(*in)
	if err != nil {
		return err
	}
	it, err := csvio.NewChunkIterator(*in, prof, relation.DefaultWindow)
	if err != nil {
		return err
	}
	defer it.Close()
	sp := tel.Trace.StartSpan(nil, "collect_stats", telemetry.A("rows", prof.Rows))
	st, err := estimator.CollectStatisticsWith(it, opts)
	sp.End()
	if err != nil {
		return err
	}
	if err := atomicio.WriteJSON(*out, st); err != nil {
		return err
	}
	tel.Log.Info("stats collected", "rows", st.Rows, "columns", len(st.Columns),
		"hists", len(st.Hist), "joints", len(st.Joints))
	fmt.Printf("stats ok: rows=%d columns=%d\n", st.Rows, len(st.Columns))
	return nil
}

// readStats loads a sufficient-statistics JSON written by cmdStats.
func readStats(path string) (*estimator.Statistics, error) {
	st := &estimator.Statistics{}
	if err := readJSON(path, st); err != nil {
		return nil, faults.Wrap(faults.ErrBadMeta, err)
	}
	return st, nil
}

func cmdQuery(args []string) (err error) {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	vf := addViewFlags(fs)
	cf := addCSVFlags(fs)
	tf := addTelFlags(fs)
	if err := fs.Parse(args); err != nil {
		return faults.Wrap(faults.ErrUsage, err)
	}
	sql := strings.Join(fs.Args(), " ")
	if !vf.ok() || sql == "" {
		return faults.Errorf(faults.ErrUsage, "query: -meta, a SQL string, and exactly one of -in, -stats, or -col are required")
	}
	tel, err := tf.setup()
	if err != nil {
		return err
	}
	defer tf.finish(&err)
	tel.Redact.Allow(vf.paths()...)
	src, meta, prov, done, err := vf.open(cf)
	if err != nil {
		return err
	}
	defer done()

	q, err := query.Parse(sql)
	if err != nil {
		return err
	}
	sp := tel.Trace.StartSpan(nil, "query_estimate", telemetry.A("agg", q.Agg.String()))
	defer sp.End()
	est := &estimator.Estimator{Meta: meta, Prov: prov, Confidence: *vf.confidence}
	ans, err := query.Run(tel, est, src, q, nil)
	if err != nil {
		return err
	}
	return printAnswer(q.Agg, ans)
}

// printAnswer renders an answer with the Direct comparison the CLI shows
// beside the PrivateClean estimate. Discrete GROUP BY rows print in sorted
// key order, counts as integers, sums and averages with full precision;
// keys present only in the direct map (zero-estimate groups GroupAvgs
// omits) are not printed. Binned groups, conjunctions and whole-column
// aggregates print the estimate alone.
func printAnswer(agg query.AggKind, a *query.Answer) error {
	switch {
	case a.Shape == query.ShapeBin:
		for _, b := range a.Bins {
			fmt.Printf("%-24s privateclean=%s\n", b.Label, b.Est)
		}
	case a.Shape == query.ShapeGroup:
		direct, err := a.GroupDirect()
		if err != nil {
			return err
		}
		format := "%-24s privateclean=%s direct=%.6g\n"
		if agg == query.AggCount {
			format = "%-24s privateclean=%s direct=%.0f\n"
		}
		for _, k := range sortedKeys(a.Groups) {
			fmt.Printf(format, k, a.Groups[k], direct[k])
		}
	case a.Shape == query.ShapeConj || a.Total:
		fmt.Printf("privateclean = %s\n", a.Estimate)
	default:
		direct, err := a.Direct()
		if err != nil {
			return err
		}
		fmt.Printf("privateclean = %s\ndirect       = %.6g\n", a.Estimate, direct)
	}
	return nil
}

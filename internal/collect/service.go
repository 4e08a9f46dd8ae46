package collect

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"privateclean/internal/faults"
	"privateclean/internal/httpsvc"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
	"privateclean/internal/telemetry"
)

// DefaultMaxInFlight bounds concurrently executing /v1/report requests when
// Config.MaxInFlight is zero.
const DefaultMaxInFlight = 64

// DefaultMaxBatchReports bounds one batch when Config.MaxBatchReports is
// zero.
const DefaultMaxBatchReports = 4096

// maxBatchBytes caps a /v1/report body.
const maxBatchBytes = 8 << 20

// maxBatchIDLen bounds a batch ID; IDs are client-chosen idempotency keys,
// not storage.
const maxBatchIDLen = 256

// StoreFileName is the checkpoint file inside the collection directory;
// WALDirName holds the segments.
const (
	StoreFileName = "store.json"
	WALDirName    = "wal"
)

// Config assembles a Service. Dir and Meta are required.
type Config struct {
	// Dir is the collection directory: WAL segments under Dir/wal, the
	// statistics checkpoint at Dir/store.json.
	Dir string
	// Meta is the mechanism metadata every client randomized under. Its
	// fingerprint (privacy.MechanismFingerprint) pins the collection: a
	// batch declaring a different fingerprint is rejected.
	Meta *privacy.ViewMeta
	// Fsync selects WAL durability (default SyncAlways); SyncEvery the
	// interval-policy cadence.
	Fsync     SyncPolicy
	SyncEvery time.Duration
	// SegmentBytes is the WAL rotation threshold (default
	// DefaultSegmentBytes).
	SegmentBytes int64
	// MaxInFlight bounds concurrently admitted batches; excess requests are
	// shed with 429 (default DefaultMaxInFlight).
	MaxInFlight int
	// MaxBatchReports bounds one batch (default DefaultMaxBatchReports).
	MaxBatchReports int
	// CompactEvery is the background compaction cadence. Zero or negative
	// disables the background compactor; compaction then happens only at
	// startup, on /v1/stats reads, on drain, and via explicit Compact calls
	// (tests use this for determinism).
	CompactEvery time.Duration
	// Tel is the telemetry set (default telemetry.Default()).
	Tel *telemetry.Set

	// walTap forwards to Options.tapWriter for write-fault injection.
	walTap func(io.Writer) io.Writer
}

// maxAckTimes caps the ack-time map behind the freshness histogram: each
// entry lives only until its batch folds, so the cap matters only when
// compaction stalls — at which point freshness sampling degrades gracefully
// (new batches go unsampled) instead of the map growing with the backlog.
const maxAckTimes = 65536

// Service is the LDP collection endpoint:
//
//	POST /v1/report   {"batch_id", "mechanism", "reports": [...]} -> ack after WAL append
//	GET  /v1/stats    current folded statistics (the `pc stats` JSON format)
//	GET  /v1/statusz  pipeline-health summary (watermark, backlog, freshness)
//	GET  /v1/tracez   recently completed traces from the in-memory ring
//	GET  /healthz     liveness
//	GET  /metrics     Prometheus text exposition
//
// Its HTTP front, the shared chassis, gives it Handler, Serve and
// ListenAndServe; Shutdown drains the chassis and then the WAL.
type Service struct {
	*httpsvc.Chassis
	meta     *privacy.ViewMeta
	mech     string
	schema   relation.Schema
	codec    *batchSchema
	wal      *WAL
	store    *Store
	tel      *telemetry.Set
	maxBatch int
	start    time.Time

	// cmu serializes compaction (startup replay, ticker, stats reads,
	// drain).
	cmu sync.Mutex

	// retained holds the acks' decoded batches for their segments' folds.
	// Each ack registers its batch from inside its WAL append.
	retained *retention
	// batches recycles decoded batches: an ack decodes into one, and it
	// comes back when its segment's fold ends or, if no retained list kept
	// it, when its ack returns.
	batches sync.Pool

	mu          sync.Mutex
	stopCompact chan struct{}
	compactDone chan struct{}

	// obsMu guards the observability state: ack times awaiting their fold
	// (feeding the freshness histogram) and the last fold/compact stamps
	// surfaced by /v1/statusz.
	obsMu       sync.Mutex
	ackTimes    map[string]time.Time
	lastFold    time.Time
	lastCompact time.Time

	// The per-ack instruments, resolved once. decodeFallbacks counts
	// /v1/report batches that decoded through encoding/json because their
	// body was not in the compact canonical encoding.
	decodeFallbacks *telemetry.Counter
	batchesAccepted *telemetry.Counter
	reportsAccepted *telemetry.Counter
	duplicates      *telemetry.Counter

	// testHook, when set, runs inside /v1/report handling after admission;
	// tests use it to hold requests in flight deterministically.
	testHook func()
}

// SchemaFor derives the collection schema a mechanism induces: every
// discrete attribute then every numeric attribute, each group in sorted-name
// order. Deterministic so independent runs (and the batch pipeline's
// equality test) agree on column order.
func SchemaFor(meta *privacy.ViewMeta) (relation.Schema, error) {
	var cols []relation.Column
	names := make([]string, 0, len(meta.Discrete))
	for name := range meta.Discrete {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cols = append(cols, relation.Column{Name: name, Kind: relation.Discrete})
	}
	names = names[:0]
	for name := range meta.Numeric {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cols = append(cols, relation.Column{Name: name, Kind: relation.Numeric})
	}
	schema, err := relation.NewSchema(cols...)
	if err != nil {
		return relation.Schema{}, faults.Wrap(faults.ErrBadMeta, err)
	}
	return schema, nil
}

// New validates cfg, recovers the WAL and store from Dir, replays any
// durable-but-unfolded segments, and returns a Service ready to accept
// reports. Recovery is loud: a corrupt sealed segment or checkpoint refuses
// to start rather than serving undercounted statistics.
func New(cfg Config) (*Service, error) {
	if cfg.Dir == "" {
		return nil, faults.Errorf(faults.ErrUsage, "collect: need a collection directory")
	}
	if cfg.Meta == nil {
		return nil, faults.Errorf(faults.ErrBadMeta, "collect: nil mechanism metadata")
	}
	if err := cfg.Meta.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxBatchReports <= 0 {
		cfg.MaxBatchReports = DefaultMaxBatchReports
	}
	tel := cfg.Tel
	if tel == nil {
		tel = telemetry.Default()
	}
	// Span and op names, policy names, and collect-specific outcome codes
	// appear as metric labels and log values; all code-chosen, none data.
	tel.Redact.Allow("collect", "wal_recover", "wal_rotate", "compact",
		"memory", "wal", "mechanism_mismatch", "bad_batch",
		"always", "interval", "never")
	schema, err := SchemaFor(cfg.Meta)
	if err != nil {
		return nil, err
	}
	mech := privacy.MechanismFingerprint(cfg.Meta)
	wal, err := Open(filepath.Join(cfg.Dir, WALDirName), Options{
		SegmentBytes: cfg.SegmentBytes,
		Policy:       cfg.Fsync,
		SyncEvery:    cfg.SyncEvery,
		Tel:          tel,
		tapWriter:    cfg.walTap,
	})
	if err != nil {
		return nil, err
	}
	store, err := OpenStore(filepath.Join(cfg.Dir, StoreFileName), schema, mech)
	if err != nil {
		wal.Close()
		return nil, err
	}
	// The store decodes and encodes its windows against the released
	// domains too (batchDecoder.value, encoder.encode).
	store.codec = newBatchSchema(schema, cfg.Meta)
	s := &Service{
		meta:     cfg.Meta,
		mech:     mech,
		schema:   schema,
		codec:    store.codec,
		wal:      wal,
		retained: newRetention(wal.opts.SegmentBytes),
		store:    store,
		tel:      tel,
		Chassis:  httpsvc.New(tel, cfg.MaxInFlight, "collector", nil),
		maxBatch: cfg.MaxBatchReports,
		start:    time.Now(),
		ackTimes: make(map[string]time.Time),
		decodeFallbacks: tel.Metrics.Counter("privateclean_collect_decode_fallback_total",
			"Report batches decoded by encoding/json because the body was not compact canonical JSON (whitespace, escapes, other field-name case)."),
		batchesAccepted: tel.Metrics.Counter("privateclean_collect_batches_accepted_total",
			"Batches acknowledged after a durable WAL append."),
		reportsAccepted: tel.Metrics.Counter("privateclean_collect_reports_accepted_total",
			"Reports acknowledged after a durable WAL append."),
		duplicates: tel.Metrics.Counter("privateclean_collect_duplicate_batches_total",
			"Batches skipped during folding because their ID already folded."),
	}
	s.Handle("/v1/report", s.handleReport)
	s.HandleGet("/v1/stats", s.handleStats)
	s.HandleGet("/v1/statusz", s.handleStatusz)
	// Startup replay: seal whatever the previous process left in the active
	// segment, then fold every sealed segment. After this the statistics
	// reflect every acknowledged batch that reached stable storage.
	if _, err := s.Compact(); err != nil {
		wal.Close()
		return nil, err
	}
	rec := wal.Recovery()
	tel.Log.Info("collector recovered", "op", "wal_recover",
		"segments", rec.Segments, "records", rec.Records,
		"truncated_bytes", rec.TruncatedBytes, "rows", store.Rows(),
		"fsync", cfg.Fsync.String())
	if cfg.CompactEvery > 0 {
		s.stopCompact = make(chan struct{})
		s.compactDone = make(chan struct{})
		go s.compactLoop(cfg.CompactEvery, s.stopCompact, s.compactDone)
	}
	return s, nil
}

// compactLoop is the background compactor: rotate-if-nonempty then fold, on
// a fixed cadence, until stop closes; it closes done on return. It holds
// its own copies of the channels: stopCompactor clears the fields before
// it closes stop, so a loop that read the field after a pass would wait on
// a nil channel and never return.
func (s *Service) compactLoop(every time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			if _, err := s.Compact(); err != nil {
				s.tel.Log.Error("background compaction failed", "op", "compact", telemetry.ErrAttr(err))
			}
		}
	}
}

// Compact seals the active segment (when nonempty) and folds every sealed
// segment into the store in sequence order, deleting each segment after its
// fold checkpoints. Segments at or below the store watermark are deleted
// without folding — they are the crash window between a checkpoint write and
// a segment delete. Returns the number of batches folded.
//
// Each segment's fold runs under its own "fold" span linked to the trace ID
// of every batch it newly applies — the asynchronous half of following a
// batch: the client's trace ends at the ack, and the fold span's links pick
// the story back up at checkpoint commit.
func (s *Service) Compact() (int, error) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	if _, err := s.wal.Rotate(); err != nil {
		return 0, err
	}
	segs, err := s.wal.Sealed()
	if err != nil {
		return 0, err
	}
	folded := 0
	for _, seg := range segs {
		if seg.Seq <= s.store.AppliedSeq() {
			s.release(seg.Seq)
			if err := os.Remove(seg.Path); err != nil && !os.IsNotExist(err) {
				return folded, faults.Wrap(faults.ErrPartialWrite, err)
			}
			continue
		}
		n, err := s.foldSegment(seg)
		folded += n
		if err != nil {
			return folded, err
		}
		if err := os.Remove(seg.Path); err != nil && !os.IsNotExist(err) {
			return folded, faults.Wrap(faults.ErrPartialWrite, err)
		}
		s.tel.Metrics.Counter("privateclean_collect_segments_compacted_total",
			"WAL segments folded into the statistics store.").Inc()
	}
	s.tel.Metrics.Counter("privateclean_collect_compactions_total",
		"Compaction passes over the WAL.").Inc()
	s.obsMu.Lock()
	s.lastCompact = time.Now()
	s.obsMu.Unlock()
	s.UpdateGauges()
	return folded, nil
}

// foldSegment folds one sealed segment under a traced span, observing the
// fold latency and, for every newly applied batch, the ack-to-commit
// freshness. A segment whose acks' batches are all retained folds them
// (span source "memory"); any other reads the segment back (source "wal").
// Either way the retained list is released when the fold ends, so a failed
// fold's retry reads the WAL. Callers hold cmu.
func (s *Service) foldSegment(seg SegmentInfo) (int, error) {
	batches, fromMemory := s.retained.list(seg.Seq)
	defer s.release(seg.Seq)
	source := "wal"
	if fromMemory {
		source = "memory"
	}
	sp := s.tel.Trace.StartSpan(nil, "fold", telemetry.A("segment", int(seg.Seq)), telemetry.A("source", source))
	defer sp.End()
	start := time.Now()
	defer func() {
		s.tel.Metrics.Histogram("privateclean_collect_fold_seconds",
			"Wall time of folding one sealed WAL segment into the checkpoint.",
			telemetry.DurationBuckets).Observe(time.Since(start).Seconds())
	}()
	var refs []FoldedBatch
	var records int
	var err error
	if fromMemory {
		debugCheckRetained(seg.Path, s.codec, batches)
		records = len(batches)
		refs, err = s.store.foldBatches(seg.Seq, batches)
	} else {
		var payloads [][]byte
		if payloads, err = ReadSegment(seg.Path); err == nil {
			records = len(payloads)
			refs, err = s.store.Fold(seg.Seq, payloads)
		}
	}
	if err != nil {
		sp.Set("err", err)
		return 0, err
	}
	sp.Set("records", records)
	sp.Set("batches", len(refs))
	for _, ref := range refs {
		if ref.TraceID != "" {
			sp.Link(ref.TraceID)
		}
	}
	if len(refs) < records {
		s.duplicates.Add(float64(records - len(refs)))
	}
	s.observeFreshness(refs)
	return len(refs), nil
}

// maxPooledReports bounds the batches recycle keeps: one that held more
// reports, which validation refuses by default, is left to the garbage
// collector, so its columns do not stay pooled.
const maxPooledReports = DefaultMaxBatchReports

// batch returns a batch for an ack to decode into.
func (s *Service) batch() *batchCols {
	if b, ok := s.batches.Get().(*batchCols); ok {
		return b
	}
	return new(batchCols)
}

// recycle returns b, which nothing reads any more, for a later ack.
func (s *Service) recycle(b *batchCols) {
	if b.n <= maxPooledReports {
		s.batches.Put(b)
	}
}

// release ends segment seq's retention and recycles the batches its list
// kept.
func (s *Service) release(seq uint64) {
	for _, b := range s.retained.release(seq) {
		s.recycle(b)
	}
}

// observeFreshness turns recorded ack times into end-to-end freshness
// observations (batch ack -> checkpoint commit) for the newly folded
// batches, and stamps the fold time for /v1/statusz.
func (s *Service) observeFreshness(refs []FoldedBatch) {
	now := time.Now()
	hist := s.tel.Metrics.Histogram("privateclean_collect_freshness_seconds",
		"End-to-end pipeline freshness: time from a batch's durable ack to the checkpoint commit that folded it.",
		telemetry.FreshnessBuckets)
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	if len(refs) > 0 {
		s.lastFold = now
	}
	for _, ref := range refs {
		if acked, ok := s.ackTimes[ref.ID]; ok {
			hist.Observe(now.Sub(acked).Seconds())
			delete(s.ackTimes, ref.ID)
		}
	}
}

// recordAck stamps a batch's ack time so its eventual fold can observe
// freshness. Best-effort: bounded by maxAckTimes, lost on restart (a
// restarted collector cannot know when a pre-crash batch was acked).
func (s *Service) recordAck(id string) {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	if len(s.ackTimes) >= maxAckTimes {
		return
	}
	s.ackTimes[id] = time.Now()
}

// UpdateGauges refreshes the pipeline-lag gauges: applied/active sequence
// watermarks, the sealed-segment backlog awaiting a fold, WAL disk usage,
// admission-queue depth, and the bytes of retained batches. Called after
// every compaction and from the runtime-metrics sampling tick.
func (s *Service) UpdateGauges() { s.updateGauges() }

// updateGauges is UpdateGauges. The backlog, the disk bytes and the segment
// count all come from one listing of the WAL directory, and it returns the
// first two for /v1/statusz.
func (s *Service) updateGauges() (backlog int, diskBytes int64) {
	applied, active := s.store.AppliedSeq(), s.wal.ActiveSeq()
	segs, diskBytes := s.wal.usage()
	for _, seg := range segs {
		if seg.Seq > applied && seg.Seq < active {
			backlog++
		}
	}
	s.tel.Metrics.Gauge("privateclean_collect_applied_seq",
		"Highest WAL segment folded into the statistics checkpoint.").Set(float64(applied))
	s.tel.Metrics.Gauge("privateclean_collect_active_seq",
		"Sequence number of the active WAL segment.").Set(float64(active))
	s.tel.Metrics.Gauge("privateclean_collect_seq_lag",
		"Applied-sequence lag: sealed segments not yet folded (active_seq - 1 - applied_seq, floored at 0).").Set(float64(seqLag(applied, active)))
	s.tel.Metrics.Gauge("privateclean_collect_sealed_backlog",
		"Sealed WAL segments on disk awaiting compaction.").Set(float64(backlog))
	s.tel.Metrics.Gauge("privateclean_collect_wal_disk_bytes",
		"Total bytes of WAL segment files on disk.").Set(float64(diskBytes))
	s.tel.Metrics.Gauge("privateclean_collect_wal_segments",
		"WAL segment files on disk (sealed + active).").Set(float64(len(segs)))
	s.tel.Metrics.Gauge("privateclean_collect_admission_inflight",
		"Batches currently admitted past the /v1/report semaphore.").Set(float64(s.InFlight()))
	s.tel.Metrics.Gauge("privateclean_collect_retained_bytes",
		"WAL payload bytes of acked batches kept decoded for their segment's fold (under twice the segment rotation threshold plus one record).").Set(float64(s.retained.heldBytes()))
	return backlog, diskBytes
}

func seqLag(applied, active uint64) uint64 {
	if active <= applied+1 {
		return 0
	}
	return active - 1 - applied
}

// reportResponse acknowledges one batch.
type reportResponse struct {
	BatchID   string `json:"batch_id"`
	Reports   int    `json:"reports"`
	Duplicate bool   `json:"duplicate"`
}

// validateBatch vets a decoded batch against the pinned mechanism. Only
// attribute *names* are checked; discrete values outside the released
// domain are accepted (the batch path's domains are data-derived too), but
// attributes the mechanism does not cover are rejected — they were not
// randomized under the channel the estimator will invert. The refusal names
// the first report carrying such an attribute and its smallest such name,
// discrete before numeric. Numeric values need no check: JSON carries no
// non-finite number.
func (s *Service) validateBatch(b *batchCols) (status int, code, msg string) {
	if b.ID == "" || len(b.ID) > maxBatchIDLen {
		return http.StatusBadRequest, "bad_batch", fmt.Sprintf("batch_id must be 1..%d bytes", maxBatchIDLen)
	}
	if b.Mechanism != s.mech {
		return http.StatusUnprocessableEntity, "mechanism_mismatch",
			"batch was randomized under a different mechanism than this collector serves"
	}
	if b.n == 0 {
		return http.StatusBadRequest, "bad_batch", "batch has no reports"
	}
	if b.n > s.maxBatch {
		return http.StatusRequestEntityTooLarge, "bad_batch",
			fmt.Sprintf("batch of %d reports exceeds the %d-report bound", b.n, s.maxBatch)
	}
	if u := b.unknown; u.report >= 0 {
		return http.StatusUnprocessableEntity, "bad_batch",
			fmt.Sprintf("report %d: unknown %s attribute %q", u.report, u.kind, u.name)
	}
	return 0, "", ""
}

// bodyBufs recycles /v1/report buffers: each request reads its body into
// one, then encodes its WAL record over the body in the same buffer. A
// buffer grown past maxPooledBody, far above a typical batch, is left to
// the garbage collector, so a burst of large bodies does not stay pooled.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// decodeReport decodes and validates one /v1/report body into a batch from
// the pool, which the caller recycles unless a retained list keeps it. A
// refusal comes back as its status, code and message; fallback reports a
// body that decoded, but only through encoding/json. The batch shares no
// memory with body.
func (s *Service) decodeReport(body []byte) (b *batchCols, fallback bool, status int, code, msg string) {
	b = s.batch()
	d := batchDecoder{bs: s.codec}
	fast, err := d.decode(b, body)
	if err != nil {
		return b, false, http.StatusBadRequest, "bad_batch",
			`body must be JSON {"batch_id", "mechanism", "reports": [...]}: ` + err.Error()
	}
	status, code, msg = s.validateBatch(b)
	return b, !fast, status, code, msg
}

func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	// Adopt the client's trace context (strictly validated) so the report
	// handler's span shares the trace that randomized the batch, and echo it
	// on the ack so the client can correlate. A missing or malformed header
	// just starts a fresh trace.
	remoteTrace, remoteSpan, _ := telemetry.ParseTraceparent(r.Header.Get("traceparent"))
	sp := s.tel.Trace.StartRemoteSpan(remoteTrace, remoteSpan, "collect_report")
	defer sp.End()
	if tp := sp.Traceparent(); tp != "" {
		w.Header().Set("traceparent", tp)
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpsvc.WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST a JSON batch to /v1/report")
		return
	}
	buf := bodyBufs.Get().(*[]byte)
	defer func() {
		if cap(*buf) <= maxPooledBody {
			bodyBufs.Put(buf)
		}
	}()
	body, status, msg := httpsvc.ReadBody(r, *buf, maxBatchBytes)
	*buf = body[:0]
	if status != 0 {
		httpsvc.WriteError(w, status, "bad_batch", msg)
		return
	}
	// The batch goes back to the pool when this handler returns, unless its
	// segment's retained list kept it: the list then recycles it when the
	// segment's fold ends.
	b, fallback, status, code, msg := s.decodeReport(body)
	kept := false
	defer func() {
		if !kept {
			s.recycle(b)
		}
	}()
	if fallback {
		s.decodeFallbacks.Inc()
	}
	if status != 0 {
		httpsvc.WriteError(w, status, code, msg)
		return
	}
	// The trace ID that rides into the WAL (and later into fold span links)
	// must be shape-valid: prefer the batch's own, fall back to the header's,
	// drop anything malformed.
	if !telemetry.ValidTraceID(b.TraceID) {
		b.TraceID = ""
	}
	if b.TraceID == "" && remoteTrace != "" {
		b.TraceID = remoteTrace
	}
	// After the append a concurrent fold may recycle the batch, so what
	// the ack reports is read out of it now.
	id, n := b.ID, b.n
	if sp.Recording() {
		sp.Set("reports", n)
	}

	if !s.Admit(w) {
		return
	}
	defer s.Release()
	if s.testHook != nil {
		s.testHook()
	}

	// A batch that already folded is acknowledged without a second append —
	// the client is retrying an ack it lost, and the data is already
	// counted. Duplicates still in the WAL (not yet folded) do get appended
	// again; the fold path deduplicates them by ID.
	if s.store.HasBatch(id) {
		s.duplicates.Inc()
		sp.Set("duplicate", true)
		httpsvc.WriteJSON(w, http.StatusOK, reportResponse{BatchID: id, Reports: n, Duplicate: true})
		return
	}

	// Re-encode canonically: the WAL stores the batch's json.Marshal
	// rendering, not the client's raw bytes, so replay decodes exactly what
	// validation saw. The decoded batch holds no reference to the body, so
	// the record is framed over the body, in the same buffer.
	rec := s.codec.appendBatch(append(body[:0], make([]byte, recordHeaderSize)...), b)
	*buf = rec[:0]
	wsp := s.tel.Trace.StartSpan(sp, "wal_append")
	seq, err := s.wal.appendRecord(rec, func(seq uint64) {
		kept = s.retained.add(seq, b, int64(len(rec)-recordHeaderSize))
	})
	wsp.End()
	if err != nil {
		sp.Set("err", err)
		s.tel.Log.Error("batch append failed", "op", "collect", telemetry.ErrAttr(err))
		httpsvc.WriteFault(w, err, "bad_batch")
		return
	}
	s.recordAck(id)
	if sp.Recording() {
		sp.Set("segment", int(seq))
	}
	s.batchesAccepted.Inc()
	s.reportsAccepted.Add(float64(n))
	httpsvc.WriteJSON(w, http.StatusOK, reportResponse{BatchID: id, Reports: n})
}

// statuszResponse is the /v1/statusz pipeline-health summary. Everything in
// it is an aggregate, sequence number, or timestamp — no cell values, IDs,
// or payload bytes.
type statuszResponse struct {
	Service       string  `json:"service"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Mechanism     string  `json:"mechanism"`
	TotalEpsilon  float64 `json:"total_epsilon"`

	AppliedSeq    uint64 `json:"applied_seq"`
	ActiveSeq     uint64 `json:"active_seq"`
	SeqLag        uint64 `json:"seq_lag"`
	SealedBacklog int    `json:"sealed_backlog"`
	WALDiskBytes  int64  `json:"wal_disk_bytes"`

	Rows    int `json:"rows"`
	Batches int `json:"batches"`

	// LastFoldUnix is 0 when nothing has folded since start; the ages are
	// -1 then, so "never" cannot be confused with "just now".
	LastFoldUnix          int64   `json:"last_fold_unix"`
	LastFoldAgeSeconds    float64 `json:"last_fold_age_seconds"`
	LastCompactUnix       int64   `json:"last_compact_unix"`
	LastCompactAgeSeconds float64 `json:"last_compact_age_seconds"`

	FreshnessCount      uint64  `json:"freshness_count"`
	FreshnessSumSeconds float64 `json:"freshness_sum_seconds"`
	PendingAcks         int     `json:"pending_acks"`
	Inflight            int     `json:"inflight"`
}

func stampAge(t, now time.Time) (unix int64, age float64) {
	if t.IsZero() {
		return 0, -1
	}
	return t.Unix(), now.Sub(t).Seconds()
}

func (s *Service) handleStatusz(w http.ResponseWriter, r *http.Request) {
	backlog, diskBytes := s.updateGauges()
	now := time.Now()
	fresh := s.tel.Metrics.Histogram("privateclean_collect_freshness_seconds",
		"End-to-end pipeline freshness: time from a batch's durable ack to the checkpoint commit that folded it.",
		telemetry.FreshnessBuckets)
	s.obsMu.Lock()
	lastFold, lastCompact, pending := s.lastFold, s.lastCompact, len(s.ackTimes)
	s.obsMu.Unlock()
	resp := statuszResponse{
		Service:       "collect",
		UptimeSeconds: now.Sub(s.start).Seconds(),
		Mechanism:     s.mech,
		TotalEpsilon:  httpsvc.JSONSafe(s.meta.TotalEpsilon()),
		AppliedSeq:    s.store.AppliedSeq(),
		ActiveSeq:     s.wal.ActiveSeq(),
		WALDiskBytes:  diskBytes,
		SealedBacklog: backlog,
		Rows:          s.store.Rows(),
		Batches:       s.store.BatchCount(),

		FreshnessCount:      fresh.Count(),
		FreshnessSumSeconds: fresh.Sum(),
		PendingAcks:         pending,
		Inflight:            s.InFlight(),
	}
	resp.SeqLag = seqLag(resp.AppliedSeq, resp.ActiveSeq)
	resp.LastFoldUnix, resp.LastFoldAgeSeconds = stampAge(lastFold, now)
	resp.LastCompactUnix, resp.LastCompactAgeSeconds = stampAge(lastCompact, now)
	httpsvc.WriteJSON(w, http.StatusOK, resp)
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	// Compact-on-read so the response reflects every acknowledged batch,
	// not just those the background cadence has folded.
	if _, err := s.Compact(); err != nil {
		s.tel.Log.Error("stats compaction failed", "op", "compact", telemetry.ErrAttr(err))
		httpsvc.WriteFault(w, err, "bad_batch")
		return
	}
	body, err := s.store.renderStats()
	if err != nil {
		httpsvc.WriteError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	defer body.Release()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body.Bytes())
}

// Shutdown is the graceful drain: stop accepting connections and wait out
// in-flight requests (up to ctx's deadline, past which the chassis
// force-closes them and reports a partial write), stop the background
// compactor, seal and fold everything in the WAL, and close it. Every
// request that got its ack is folded into the checkpoint on disk, whatever
// the deadline did to the requests still in flight.
func (s *Service) Shutdown(ctx context.Context) error {
	httpErr := s.Chassis.Shutdown(ctx)
	s.stopCompactor()
	if _, err := s.Compact(); err != nil {
		s.wal.Close()
		return err
	}
	if err := s.wal.Close(); err != nil {
		return err
	}
	s.tel.Log.Info("collector drained", "op", "drain", "rows", s.store.Rows(), "batches", s.store.BatchCount())
	return httpErr
}

func (s *Service) stopCompactor() {
	s.mu.Lock()
	stop, done := s.stopCompact, s.compactDone
	s.stopCompact, s.compactDone = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// abort is the in-process stand-in for kill -9 in tests: stop the compactor
// goroutine (a real kill would take it down too) and drop the WAL file
// handle without syncing, folding, or draining anything.
func (s *Service) abort() {
	s.stopCompactor()
	s.wal.abort()
}

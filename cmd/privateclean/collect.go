package main

import (
	"bytes"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"privateclean/internal/collect"
	"privateclean/internal/faults"
	"privateclean/internal/privacy"
	"privateclean/internal/telemetry"
)

// collectNotify, when set by a test, receives the bound listener address once
// the collector is accepting connections.
var collectNotify func(net.Addr)

// cmdCollect runs the crash-safe LDP ingestion service: clients POST batches
// of locally randomized reports, every accepted batch is WAL-logged before
// the ack, and an asynchronous compactor folds segments into the
// sufficient-statistics checkpoint that `query -stats` / `serve -stats`
// consume.
func cmdCollect(args []string) (err error) {
	fs := flag.NewFlagSet("collect", flag.ContinueOnError)
	dir := fs.String("dir", "", "collection directory: WAL under dir/wal, checkpoint at dir/store.json (required)")
	metaPath := fs.String("meta", "", "mechanism metadata JSON every client randomized under (required)")
	lf := addListenFlags(fs, ":8081")
	fsyncPolicy := fs.String("fsync", "always", "WAL durability: always | interval | never")
	syncEvery := fs.Duration("sync-every", 100*time.Millisecond, "fsync cadence under -fsync interval")
	segmentBytes := fs.Int64("segment-bytes", collect.DefaultSegmentBytes, "WAL segment rotation threshold in bytes")
	maxInflight := fs.Int("max-inflight", collect.DefaultMaxInFlight, "concurrent batch bound; excess requests get 429")
	maxBatch := fs.Int("max-batch", collect.DefaultMaxBatchReports, "maximum reports per batch")
	compactEvery := fs.Duration("compact-every", 5*time.Second, "background compaction cadence (0 disables; compaction still runs at startup, on stats reads, and on drain)")
	tf := addTelFlags(fs)
	if err := fs.Parse(args); err != nil {
		return faults.Wrap(faults.ErrUsage, err)
	}
	if *dir == "" || *metaPath == "" {
		return faults.Errorf(faults.ErrUsage, "collect: -dir and -meta are required")
	}
	policy, err := collect.ParseSyncPolicy(*fsyncPolicy)
	if err != nil {
		return err
	}
	tel, err := tf.setup()
	if err != nil {
		return err
	}
	defer tf.finish(&err)
	tel.Redact.Allow(*dir, *metaPath, *lf.addr, *fsyncPolicy)

	meta, err := readMeta(*metaPath)
	if err != nil {
		return err
	}
	svc, err := collect.New(collect.Config{
		Dir:             *dir,
		Meta:            meta,
		Fsync:           policy,
		SyncEvery:       *syncEvery,
		SegmentBytes:    *segmentBytes,
		MaxInFlight:     *maxInflight,
		MaxBatchReports: *maxBatch,
		CompactEvery:    *compactEvery,
		Tel:             tel,
	})
	if err != nil {
		return err
	}
	// Runtime health + WAL/backlog gauges refresh on one sampling tick.
	return lf.run(tel, svc, "collect", "collecting", collectNotify, svc.UpdateGauges, "fsync", *fsyncPolicy)
}

// cmdReport is the client side of collection: read a raw CSV, randomize each
// row locally under the mechanism (privacy.PrivatizeRecord with a per-row
// seeded stream), and POST the reports to a collector in batches. Batch IDs
// are derived from the client identity plus the batch content, so rerunning
// the same command with the same -seed after a crash re-posts byte-identical
// batches that the collector deduplicates — the client-side half of
// exactly-once — while two clients shipping identical rows never collide.
//
// The randomization seed defaults to fresh crypto/rand entropy: a seed known
// outside the client lets anyone replay the RNG stream and invert
// PrivatizeRecord, voiding the local-DP guarantee. Pass -seed only for tests
// and reproduction (it also makes reruns idempotent, at that privacy cost).
func cmdReport(args []string) (err error) {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	in := fs.String("in", "", "raw CSV to randomize and ship (required; never leaves this process un-randomized)")
	metaPath := fs.String("meta", "", "mechanism metadata JSON (required; must match the collector's)")
	url := fs.String("url", "", "collector base URL, e.g. http://127.0.0.1:8081 (required)")
	batchSize := fs.Int("batch", 64, "reports per POST")
	seed := fs.Int64("seed", 0, "base seed for the per-row randomization streams; 0 (default) draws fresh entropy from crypto/rand — set only for tests/repro, a known seed voids the local-DP guarantee")
	clientID := fs.String("client", "", "client identifier mixed into batch IDs (default: hostname); keeps distinct clients' identical rows from deduplicating against each other")
	retries := fs.Int("retries", 8, "attempts per batch when the collector sheds (429) or reports transient failure (5xx)")
	mechanism := fs.String("mechanism", "", "assert the metadata's discrete mechanism (grr, krr, rrbin); errors before randomizing if the view metadata was built with a different one")
	cf := addCSVFlags(fs)
	tf := addTelFlags(fs)
	if err := fs.Parse(args); err != nil {
		return faults.Wrap(faults.ErrUsage, err)
	}
	if *in == "" || *metaPath == "" || *url == "" {
		return faults.Errorf(faults.ErrUsage, "report: -in, -meta and -url are required")
	}
	if *batchSize <= 0 {
		return faults.Errorf(faults.ErrUsage, "report: -batch must be positive")
	}
	tel, err := tf.setup()
	if err != nil {
		return err
	}
	defer tf.finish(&err)
	tel.Redact.Allow(*in, *metaPath, *url)

	meta, err := readMeta(*metaPath)
	if err != nil {
		return err
	}
	if *mechanism != "" {
		if err := privacy.MechanismByName(*mechanism); err != nil {
			return faults.Errorf(faults.ErrUsage, "report: %v", err)
		}
		want := privacy.CanonicalMechanismName(*mechanism)
		for _, name := range sortedKeys(meta.Discrete) {
			if got := privacy.CanonicalMechanismName(meta.Discrete[name].Mechanism); got != want {
				return faults.Errorf(faults.ErrBadMeta,
					"report: metadata privatizes %q with mechanism %q, -mechanism asserts %q", name, got, want)
			}
		}
	}
	fingerprint := privacy.MechanismFingerprint(meta)
	r, err := cf.load(*in)
	if err != nil {
		return err
	}
	baseSeed := *seed
	if baseSeed == 0 {
		if baseSeed, err = entropySeed(); err != nil {
			return err
		}
	}
	if *clientID == "" {
		host, herr := os.Hostname()
		if herr != nil || host == "" {
			host = "client"
		}
		*clientID = host
	}

	recs := make([]privacy.Record, 0, r.NumRows())
	for i := 0; i < r.NumRows(); i++ {
		row, rerr := r.Row(i)
		if rerr != nil {
			return faults.Wrap(faults.ErrInternal, rerr)
		}
		recs = append(recs, privacy.Record{Discrete: row.Discrete, Numeric: row.Numeric})
	}

	// Each batch runs under its own root span covering randomize + POST, and
	// its trace ID travels twice: in the traceparent header (adopted by the
	// collector's report-handler span) and in the batch body (into the WAL,
	// so the eventual compaction fold links back to it). Randomizing inside
	// the batch loop keeps the span honest about what one batch cost;
	// StreamRand's global row indexing keeps the reports byte-identical to
	// the one-loop layout.
	client := &http.Client{Timeout: 30 * time.Second}
	posted, duplicates, rows := 0, 0, 0
	for start := 0; start < len(recs); start += *batchSize {
		end := start + *batchSize
		if end > len(recs) {
			end = len(recs)
		}
		sp := tel.Trace.StartSpan(nil, "report_batch", telemetry.A("rows", end-start))
		reports, rerr := privacy.PrivatizeRecords(tel, sp, baseSeed, start, meta, recs[start:end])
		if rerr != nil {
			sp.End()
			return rerr
		}
		batch := collect.Batch{
			ID:        batchID(fingerprint, *clientID, start, reports),
			Mechanism: fingerprint,
			Reports:   reports,
			TraceID:   sp.Trace(),
		}
		dup, perr := postBatch(client, *url, batch, sp.Traceparent(), *retries)
		if perr != nil {
			sp.Set("err", perr)
			sp.End()
			return perr
		}
		sp.Set("duplicate", dup)
		sp.End()
		posted++
		rows += end - start
		if dup {
			duplicates++
		}
		tel.Log.Debug("batch acked", "op", "report", "reports", end-start, "duplicate", dup)
	}
	fmt.Printf("reported %d rows in %d batches (%d already known to the collector)\n",
		rows, posted, duplicates)
	tel.Log.Info("report finished", "op", "report", "rows", rows, "batches", posted, "duplicates", duplicates)
	return nil
}

// entropySeed draws a nonzero randomization seed from crypto/rand.
func entropySeed() (int64, error) {
	var buf [8]byte
	if _, err := crand.Read(buf[:]); err != nil {
		return 0, faults.Wrap(faults.ErrInternal, fmt.Errorf("report: seeding from crypto/rand: %w", err))
	}
	s := int64(binary.LittleEndian.Uint64(buf[:]))
	if s == 0 {
		s = 1
	}
	return s, nil
}

// batchID derives a deterministic batch identifier from the mechanism, the
// client identity, the batch's position, and its exact report content. The
// same client, input CSV, seed, and batch size always reproduce the same
// IDs, so a rerun after a client or collector crash is deduplicated instead
// of double-counted — while the client component keeps two clients that
// happen to ship identical reports (e.g. both under an explicit test seed)
// from colliding and being silently undercounted. Components are
// length-prefixed so no choice of client ID can collide with content.
func batchID(fingerprint, client string, start int, reports []privacy.Report) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d:%s%d:%s|%d|", len(fingerprint), fingerprint, len(client), client, start)
	enc := json.NewEncoder(h)
	for _, rep := range reports {
		enc.Encode(rep)
	}
	return "r-" + hex.EncodeToString(h.Sum(nil))[:40]
}

// postBatch POSTs one batch, propagating the caller's trace context via the
// traceparent header and honoring Retry-After on 429/503 shedding. Anything
// other than 200/accepted after the retry budget is a hard error.
func postBatch(client *http.Client, base string, batch collect.Batch, traceparent string, retries int) (duplicate bool, err error) {
	payload, err := json.Marshal(batch)
	if err != nil {
		return false, faults.Wrap(faults.ErrInternal, err)
	}
	for attempt := 0; ; attempt++ {
		req, perr := http.NewRequest(http.MethodPost, base+"/v1/report", bytes.NewReader(payload))
		if perr != nil {
			return false, faults.Wrap(faults.ErrUsage, perr)
		}
		req.Header.Set("Content-Type", "application/json")
		if traceparent != "" {
			req.Header.Set("traceparent", traceparent)
		}
		resp, perr := client.Do(req)
		if perr != nil {
			return false, faults.Wrap(faults.ErrPartialWrite, perr)
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if rerr != nil {
			return false, faults.Wrap(faults.ErrPartialWrite, rerr)
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			var ack struct {
				Duplicate bool `json:"duplicate"`
			}
			if jerr := json.Unmarshal(body, &ack); jerr != nil {
				return false, faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("report: unreadable ack: %w", jerr))
			}
			return ack.Duplicate, nil
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			if attempt >= retries {
				return false, faults.Errorf(faults.ErrPartialWrite,
					"report: collector still shedding after %d attempts (HTTP %d)", attempt+1, resp.StatusCode)
			}
			time.Sleep(retryAfter(resp))
		default:
			return false, faults.Errorf(faults.ErrBadParams,
				"report: collector rejected batch %s: HTTP %d: %s", batch.ID, resp.StatusCode, bytes.TrimSpace(body))
		}
	}
}

// retryAfter reads the Retry-After header (seconds), defaulting to a short
// pause so shed batches back off without stalling the upload.
func retryAfter(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 250 * time.Millisecond
}

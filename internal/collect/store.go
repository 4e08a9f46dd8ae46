package collect

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"

	"privateclean/internal/atomicio"
	"privateclean/internal/estimator"
	"privateclean/internal/faults"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
)

// storeVersion guards the checkpoint schema.
const storeVersion = 1

// Batch is the unit of ingestion and of WAL logging: one client-submitted
// group of locally randomized reports under one batch ID. The canonical JSON
// rendering of this struct is exactly what a WAL record holds, so replay
// decodes what ingestion encoded.
type Batch struct {
	ID        string           `json:"batch_id"`
	Mechanism string           `json:"mechanism"`
	Reports   []privacy.Report `json:"reports"`
	// TraceID carries the client's trace context through the WAL so the
	// asynchronous compaction fold can link back to the trace that shipped
	// the batch. Optional (omitted when clients don't trace), and restricted
	// to the 32-hex trace-ID shape by ingestion — an arbitrary string here
	// would otherwise ride into telemetry sinks.
	TraceID string `json:"trace_id,omitempty"`
}

// checkpointFile is the at-rest form of the store: the folded sufficient
// statistics, the highest WAL segment folded into them, and the IDs of every
// folded batch. It is written atomically (temp + fsync + rename) after each
// segment folds, so the pair (statistics, watermark) moves together — a
// crash never observes statistics from segment N with a watermark of N-1 or
// vice versa.
type checkpointFile struct {
	Version    int                   `json:"version"`
	Mechanism  string                `json:"mechanism,omitempty"`
	AppliedSeq uint64                `json:"applied_seq"`
	Batches    []string              `json:"batches"`
	Stats      *estimator.Statistics `json:"stats"`
}

// Store accumulates sufficient statistics from WAL segments with
// exactly-once accounting. Fold(seq, ...) is idempotent two ways: a segment
// at or below the applied watermark is skipped wholesale (the crash window
// between checkpoint write and segment delete), and a batch ID that already
// folded is skipped individually (the same batch logged in two segments by a
// client retry). The folded IDs are one sorted slice that grows with the
// number of batches; that is the price of exactly-once without client
// cooperation.
//
// Readers never wait on a fold. Folds serialize on fmu and do all their
// work — decoding, accumulating, the checkpoint write — against a private
// copy; mu guards only the published state and is held just long enough to
// read it or to swap a finished fold in. A published collector is never
// mutated again, so readers may use it after releasing mu.
type Store struct {
	path      string
	schema    relation.Schema
	codec     *batchSchema
	mechanism string

	// fmu serializes folds. Only a fold holding fmu writes the published
	// state, so a fold may read batches and coll without mu.
	fmu sync.Mutex

	mu      sync.Mutex
	applied uint64
	// batches holds the ID of every folded batch in sorted order, the order
	// the checkpoint lists them in. A fold publishes a new slice and never
	// writes a published one.
	batches []string
	coll    *estimator.Collector

	// foldHook, when set, runs inside a fold after the checkpoint lands and
	// before the swap; tests use it to hold a fold in flight, or to fail
	// one by returning an error.
	foldHook func() error
}

// OpenStore loads (or initializes) the store checkpoint at path. schema is
// the collection schema derived from the mechanism metadata; mechanism its
// fingerprint. An existing checkpoint must match both — folding reports from
// a different channel or shape into old statistics corrupts them silently,
// so a mismatch refuses loudly instead.
func OpenStore(path string, schema relation.Schema, mechanism string) (*Store, error) {
	s := &Store{path: path, schema: schema, codec: newBatchSchema(schema, nil), mechanism: mechanism}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		coll, cerr := estimator.NewCollectorFrom(nil)
		if cerr != nil {
			return nil, cerr
		}
		s.coll = coll
		return s, nil
	}
	if err != nil {
		return nil, faults.Wrap(faults.ErrBadInput, fmt.Errorf("collect: store checkpoint: %w", err))
	}
	var ck checkpointFile
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, faults.Wrap(faults.ErrCorruptCheckpoint, fmt.Errorf("collect: store checkpoint %s: %w", path, err))
	}
	if ck.Version != storeVersion {
		return nil, faults.Errorf(faults.ErrCorruptCheckpoint, "collect: store checkpoint version %d, want %d", ck.Version, storeVersion)
	}
	if ck.Mechanism != "" && ck.Mechanism != mechanism {
		return nil, faults.Errorf(faults.ErrBadMeta, "collect: store was collected under a different mechanism (fingerprint mismatch)")
	}
	if ck.Stats != nil && len(ck.Stats.Columns) > 0 {
		ckSchema, err := relation.NewSchema(ck.Stats.Columns...)
		if err != nil {
			return nil, faults.Wrap(faults.ErrCorruptCheckpoint, err)
		}
		if ckSchema.String() != schema.String() {
			return nil, faults.Errorf(faults.ErrBadMeta, "collect: store schema %q does not match mechanism schema %q", ckSchema, schema)
		}
	}
	coll, err := estimator.NewCollectorFrom(ck.Stats)
	if err != nil {
		return nil, err
	}
	s.applied = ck.AppliedSeq
	s.coll = coll
	// A checkpoint Fold wrote is sorted without repeats already.
	if !slices.IsSorted(ck.Batches) {
		slices.Sort(ck.Batches)
	}
	s.batches = slices.Compact(ck.Batches)
	return s, nil
}

// AppliedSeq returns the highest WAL segment folded into the statistics.
func (s *Store) AppliedSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// HasBatch reports whether a batch ID has already been folded. Ingestion
// uses it to short-circuit duplicates cheaply; it is advisory only — a batch
// a fold is still applying reads as new until the fold swaps in, and the
// fold path re-checks every ID.
func (s *Store) HasBatch(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := slices.BinarySearch(s.batches, id)
	return ok
}

// FoldedBatch identifies one batch a Fold call newly applied: its ID and the
// trace ID it carried (empty when the client did not trace). The compactor
// uses these to link its fold span to the shipping traces and to observe the
// ack-to-commit freshness of each batch.
type FoldedBatch struct {
	ID      string
	TraceID string
}

// Fold folds one sealed segment's payloads into the statistics and advances
// the watermark to seq, writing the checkpoint atomically before returning.
// Payloads whose batch ID already folded are skipped. After a nil return the
// segment file is safe to delete; if the process dies first, the next Fold
// call (or Open) sees seq <= AppliedSeq and skips it — exactly-once either
// way. The returned slice holds the newly folded batches in segment order.
//
// The fold is staged: payloads decode into the collection schema's columns
// and accumulate into a copy of the statistics (estimator.Collector.Clone),
// and the in-memory watermark, batch set, and collector swap over only after
// the checkpoint rename lands. On any error nothing moves — Compact cannot
// watermark-delete a segment no durable checkpoint covers, and retrying the
// same Fold neither loses nor double-counts a batch. Only the swap takes the
// reader lock, so HasBatch, MarshalStats and the rest answer from the
// previous state while a fold runs.
func (s *Store) Fold(seq uint64, payloads [][]byte) ([]FoldedBatch, error) {
	// One decoder and one set of columns serve every payload: each window
	// is folded before the next payload overwrites the columns, and the
	// decoder's intern table shares repeated values across batches.
	dec := batchDecoder{bs: s.codec}
	var b batchCols
	return s.fold(seq, len(payloads), func(i int) (*batchCols, error) {
		// The payload passed a CRC check, so a decode failure is not line
		// noise — it is a version skew or a bug, and it poisons the segment
		// as corrupt.
		if _, err := dec.decode(&b, payloads[i]); err != nil {
			return nil, faults.Wrap(faults.ErrCorruptCheckpoint, fmt.Errorf("collect: wal record: %w", err))
		}
		return &b, nil
	})
}

// foldBatches is Fold over batches already decoded, one per record of
// segment seq in WAL order: the acks' own columns, so the segment is
// neither read back nor decoded again. The result, the checkpoint and the
// statistics are those Fold gives over the segment's payloads.
func (s *Store) foldBatches(seq uint64, batches []*batchCols) ([]FoldedBatch, error) {
	return s.fold(seq, len(batches), func(i int) (*batchCols, error) { return batches[i], nil })
}

// fold is the core both sources share: batch(i) yields record i of the n
// in segment seq, valid until the next call.
func (s *Store) fold(seq uint64, n int, batch func(i int) (*batchCols, error)) (folded []FoldedBatch, err error) {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	if seq <= s.AppliedSeq() {
		return nil, nil
	}
	staged := s.coll.Clone()
	seen := make(map[string]struct{})
	var newIDs []string
	for i := 0; i < n; i++ {
		b, err := batch(i)
		if err != nil {
			return nil, err
		}
		if b.ID == "" {
			return nil, faults.Errorf(faults.ErrCorruptCheckpoint, "collect: wal record with empty batch id")
		}
		if _, ok := slices.BinarySearch(s.batches, b.ID); ok {
			continue
		}
		if _, ok := seen[b.ID]; ok {
			continue
		}
		win, err := b.window(s.codec, s.schema)
		if err != nil {
			return nil, faults.Wrap(faults.ErrCorruptCheckpoint, fmt.Errorf("collect: batch %q: %w", b.ID, err))
		}
		if err := staged.Add(win); err != nil {
			return nil, err
		}
		seen[b.ID] = struct{}{}
		newIDs = append(newIDs, b.ID)
		folded = append(folded, FoldedBatch{ID: b.ID, TraceID: b.TraceID})
	}
	sort.Strings(newIDs)
	ids := mergeSorted(s.batches, newIDs)
	ck := checkpointFile{
		Version:    storeVersion,
		Mechanism:  s.mechanism,
		AppliedSeq: seq,
		Batches:    ids,
		Stats:      staged.Statistics(),
	}
	if err := atomicio.WriteJSON(s.path, ck); err != nil {
		return nil, err
	}
	if s.foldHook != nil {
		if err := s.foldHook(); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.coll = staged
	s.applied = seq
	s.batches = ids
	return folded, nil
}

// mergeSorted returns the sorted union of two disjoint sorted slices in a
// new slice.
func mergeSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// collector returns the published collector, which no one mutates.
func (s *Store) collector() *estimator.Collector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coll
}

// MarshalStats renders the current statistics as JSON, in exactly the
// format `privateclean stats` writes, so the bytes can be saved to a file
// and fed to `query -stats` / `serve -stats` directly.
func (s *Store) MarshalStats() ([]byte, error) {
	data, err := json.MarshalIndent(s.collector().Statistics(), "", "  ")
	if err != nil {
		return nil, faults.Wrap(faults.ErrInternal, err)
	}
	return append(data, '\n'), nil
}

// Rows returns the number of folded report rows.
func (s *Store) Rows() int {
	return s.collector().Statistics().Rows
}

// BatchCount returns the number of distinct folded batches.
func (s *Store) BatchCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.batches)
}

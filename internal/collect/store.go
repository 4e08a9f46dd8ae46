package collect

import (
	"encoding/json"
	"fmt"
	"os"
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
// client retry). The set of folded IDs grows with the number of batches;
// that is the price of exactly-once without client cooperation.
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
	batches map[string]struct{}
	coll    *estimator.Collector

	// foldHook, when set, runs inside Fold after the checkpoint lands and
	// before the swap; tests use it to hold a fold in flight.
	foldHook func()
}

// OpenStore loads (or initializes) the store checkpoint at path. schema is
// the collection schema derived from the mechanism metadata; mechanism its
// fingerprint. An existing checkpoint must match both — folding reports from
// a different channel or shape into old statistics corrupts them silently,
// so a mismatch refuses loudly instead.
func OpenStore(path string, schema relation.Schema, mechanism string) (*Store, error) {
	s := &Store{path: path, schema: schema, codec: newBatchSchema(schema), mechanism: mechanism, batches: make(map[string]struct{})}
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
	for _, id := range ck.Batches {
		s.batches[id] = struct{}{}
	}
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
	_, ok := s.batches[id]
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
func (s *Store) Fold(seq uint64, payloads [][]byte) (folded []FoldedBatch, err error) {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	if seq <= s.AppliedSeq() {
		return nil, nil
	}
	staged := s.coll.Clone()
	newIDs := make(map[string]struct{})
	// One decoder and one set of columns serve every payload: each window
	// is folded before the next payload overwrites the columns, and the
	// decoder's intern table shares repeated values across batches.
	dec := batchDecoder{bs: s.codec}
	var b batchCols
	for _, payload := range payloads {
		// The payload passed a CRC check, so a decode failure is not line
		// noise — it is a version skew or a bug, and it poisons the segment
		// as corrupt.
		if _, err := dec.decode(&b, payload); err != nil {
			return nil, faults.Wrap(faults.ErrCorruptCheckpoint, fmt.Errorf("collect: wal record: %w", err))
		}
		if b.ID == "" {
			return nil, faults.Errorf(faults.ErrCorruptCheckpoint, "collect: wal record with empty batch id")
		}
		if _, ok := s.batches[b.ID]; ok {
			continue
		}
		if _, ok := newIDs[b.ID]; ok {
			continue
		}
		win, err := b.window(s.codec, s.schema)
		if err != nil {
			return nil, faults.Wrap(faults.ErrCorruptCheckpoint, fmt.Errorf("collect: batch %q: %w", b.ID, err))
		}
		if err := staged.Add(win); err != nil {
			return nil, err
		}
		newIDs[b.ID] = struct{}{}
		folded = append(folded, FoldedBatch{ID: b.ID, TraceID: b.TraceID})
	}
	ids := make([]string, 0, len(s.batches)+len(newIDs))
	for id := range s.batches {
		ids = append(ids, id)
	}
	for id := range newIDs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
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
		s.foldHook()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.coll = staged
	s.applied = seq
	for id := range newIDs {
		s.batches[id] = struct{}{}
	}
	return folded, nil
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

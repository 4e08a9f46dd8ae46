// Package collect is the crash-safe LDP ingestion service: clients randomize
// records locally (privacy.PrivatizeRecord) and POST batches of reports; the
// collector appends every accepted batch to a checksummed write-ahead log
// before acknowledging it, and an asynchronous compactor folds sealed WAL
// segments into the sufficient-statistics store that `query -stats` and
// `serve -stats` consume.
//
// Durability contract: once a batch is acknowledged with 200 under the
// "always" fsync policy, it survives kill -9 and power loss — records are
// fsynced before the ack, the WAL directory is fsynced when a segment is
// created (so the directory entry cannot vanish out from under synced
// records), and restart replays the WAL and folds every record exactly once
// (batch IDs deduplicate replays). A torn tail on the
// active segment (the record being appended when the process died) is
// truncated on recovery: that record was never acknowledged, so dropping it
// loses nothing. Corruption anywhere else is refused loudly rather than
// silently skipped, because a sealed segment's records were all acknowledged.
package collect

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"privateclean/internal/faults"
	"privateclean/internal/telemetry"
)

// Record layout: a fixed header of uint32 little-endian payload length and
// uint32 little-endian CRC32 (IEEE) of the payload, then the payload bytes.
const recordHeaderSize = 8

// maxRecordBytes bounds one record; a length beyond it is treated as header
// corruption, not an allocation request.
const maxRecordBytes = 64 << 20

// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes is
// zero.
const DefaultSegmentBytes = 4 << 20

// segPrefix/segSuffix shape segment file names: wal-<16-digit seq>.log.
const (
	segPrefix = "wal-"
	segSuffix = ".log"
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append, before the caller can
	// acknowledge. The only policy under which a 200 implies durability.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most every Options.SyncEvery (and on rotation,
	// drain, and close). A crash can lose the acknowledged tail of one
	// interval.
	SyncInterval
	// SyncNever leaves flushing to the OS. For tests and throwaway runs.
	SyncNever
)

// ParseSyncPolicy reads a -fsync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, faults.Errorf(faults.ErrUsage, "collect: unknown fsync policy %q (want always, interval, or never)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return "unknown"
}

// Options configures a WAL.
type Options struct {
	// SegmentBytes rotates the active segment once it holds at least this
	// many bytes (default DefaultSegmentBytes).
	SegmentBytes int64
	// Policy selects the fsync policy (default SyncAlways).
	Policy SyncPolicy
	// SyncEvery is the SyncInterval cadence (default 100ms).
	SyncEvery time.Duration
	// Tel is the telemetry set (default telemetry.Default()).
	Tel *telemetry.Set

	// tapWriter, when set by a test, wraps the active segment's writer so
	// write faults (disk full, short writes) can be injected at exact byte
	// offsets.
	tapWriter func(io.Writer) io.Writer
}

// SegmentInfo identifies one on-disk WAL segment.
type SegmentInfo struct {
	Seq  uint64
	Path string
}

// RecoveryStats reports what Open found and repaired.
type RecoveryStats struct {
	// Segments is the number of segment files present, Records the total
	// records recovered across them.
	Segments int
	Records  int
	// TruncatedBytes is the size of the torn tail dropped from the active
	// segment (zero on a clean shutdown).
	TruncatedBytes int64
}

// WAL is a length-prefixed, CRC-checksummed write-ahead log over numbered
// segment files. Appends go to the single active (highest-seq) segment;
// Rotate seals it; sealed segments are immutable until the compactor deletes
// them. Safe for concurrent use.
type WAL struct {
	dir  string
	opts Options

	// The per-append instruments, resolved once by Open.
	appendSeconds *telemetry.Histogram
	fsyncSeconds  *telemetry.Histogram
	appendedBytes *telemetry.Counter

	mu       sync.Mutex
	f        *os.File
	seq      uint64 // active segment sequence number
	size     int64  // bytes of valid records in the active segment
	lastSync time.Time
	closed   bool
	poisoned error // set when an append repair failed; all appends fail after
	recov    RecoveryStats
}

// segName renders the file name of segment seq.
func segName(seq uint64) string {
	return fmt.Sprintf("%s%016d%s", segPrefix, seq, segSuffix)
}

// parseSegName inverts segName.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
	if err != nil || seq == 0 {
		return 0, false
	}
	return seq, true
}

// listSegments returns the directory's segment files in sequence order.
func listSegments(dir string) ([]SegmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, faults.Wrap(faults.ErrBadInput, fmt.Errorf("collect: wal dir: %w", err))
	}
	var segs []SegmentInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSegName(e.Name()); ok {
			segs = append(segs, SegmentInfo{Seq: seq, Path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Seq < segs[j].Seq })
	for i := 1; i < len(segs); i++ {
		if segs[i].Seq == segs[i-1].Seq {
			return nil, faults.Errorf(faults.ErrCorruptCheckpoint, "collect: duplicate wal segment seq %d", segs[i].Seq)
		}
	}
	return segs, nil
}

// scanSegment walks a segment file, returning the payloads of every valid
// record, the byte offset where valid data ends, and a non-nil tail error
// when the file does not end cleanly at a record boundary (torn header,
// short payload, bad CRC, or absurd length).
func scanSegment(path string) (records [][]byte, validLen int64, tailErr error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	off := int64(0)
	for off < int64(len(data)) {
		if int64(len(data))-off < recordHeaderSize {
			return records, off, fmt.Errorf("torn header at offset %d", off)
		}
		length := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if length == 0 || length > maxRecordBytes {
			return records, off, fmt.Errorf("implausible record length %d at offset %d", length, off)
		}
		end := off + recordHeaderSize + int64(length)
		if end > int64(len(data)) {
			return records, off, fmt.Errorf("torn payload at offset %d", off)
		}
		payload := data[off+recordHeaderSize : end]
		if crc32.ChecksumIEEE(payload) != sum {
			return records, off, fmt.Errorf("crc mismatch at offset %d", off)
		}
		records = append(records, payload)
		off = end
	}
	return records, off, nil
}

// ReadSegment reads a sealed segment strictly: any invalid byte is
// corruption (every record in a sealed segment was acknowledged, so nothing
// in it is allowed to be torn).
func ReadSegment(path string) ([][]byte, error) {
	records, _, tailErr := scanSegment(path)
	if tailErr != nil {
		return nil, faults.Wrap(faults.ErrCorruptCheckpoint,
			fmt.Errorf("collect: sealed wal segment %s: %w", filepath.Base(path), tailErr))
	}
	return records, nil
}

// Open recovers the WAL in dir (creating it if absent). Sealed segments must
// be fully valid; the active (last) segment is truncated at the first
// invalid offset — a torn header, short payload, or checksum failure. Under
// the append protocol (records written sequentially, failed appends repaired
// by truncation to a record boundary before the next write) everything past
// that offset belongs to the one append that never completed, and it was
// never acknowledged, so dropping it loses nothing. Corruption in a sealed
// segment refuses to start with ErrCorruptCheckpoint: its records were all
// acknowledged, and silent repair would undercount them.
func Open(dir string, opts Options) (*WAL, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 100 * time.Millisecond
	}
	tel := opts.Tel
	if tel == nil {
		tel = telemetry.Default()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("collect: wal dir: %w", err))
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	w := &WAL{
		dir: dir, opts: opts, seq: 1, lastSync: time.Now(),
		appendSeconds: tel.Metrics.Histogram("privateclean_collect_wal_append_seconds",
			"Wall time of one WAL append, including any fsync the policy demands.",
			telemetry.DurationBuckets),
		fsyncSeconds: tel.Metrics.Histogram("privateclean_collect_wal_fsync_seconds",
			"Wall time of WAL fsync calls.", telemetry.DurationBuckets),
		appendedBytes: tel.Metrics.Counter("privateclean_collect_wal_appended_bytes_total",
			"Bytes appended to the write-ahead log."),
	}
	w.recov.Segments = len(segs)
	for i, seg := range segs {
		records, validLen, tailErr := scanSegment(seg.Path)
		w.recov.Records += len(records)
		if tailErr == nil {
			continue
		}
		if i != len(segs)-1 {
			return nil, faults.Wrap(faults.ErrCorruptCheckpoint,
				fmt.Errorf("collect: sealed wal segment %s: %w", filepath.Base(seg.Path), tailErr))
		}
		// Active segment: drop the torn tail. Anything after the first
		// invalid offset is unacknowledged by the append protocol.
		info, err := os.Stat(seg.Path)
		if err != nil {
			return nil, faults.Wrap(faults.ErrBadInput, err)
		}
		w.recov.TruncatedBytes = info.Size() - validLen
		if err := truncateTo(seg.Path, validLen); err != nil {
			return nil, err
		}
		tel.Log.Warn("wal recovered torn tail", "op", "wal_recover",
			"segment", int(seg.Seq), "truncated_bytes", w.recov.TruncatedBytes)
	}
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		w.seq = last.Seq
		f, err := os.OpenFile(last.Path, os.O_RDWR, 0)
		if err != nil {
			return nil, faults.Wrap(faults.ErrBadInput, err)
		}
		size, err := f.Seek(0, io.SeekEnd)
		if err != nil {
			f.Close()
			return nil, faults.Wrap(faults.ErrBadInput, err)
		}
		w.f, w.size = f, size
	} else {
		if err := w.openSegmentLocked(); err != nil {
			return nil, err
		}
	}
	tel.Metrics.Counter("privateclean_collect_wal_truncated_bytes_total",
		"Torn-tail bytes dropped during WAL recovery.").Add(float64(w.recov.TruncatedBytes))
	return w, nil
}

// truncateTo truncates path to n bytes and syncs the result.
func truncateTo(path string, n int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return faults.Wrap(faults.ErrPartialWrite, err)
	}
	defer f.Close()
	if err := f.Truncate(n); err != nil {
		return faults.Wrap(faults.ErrPartialWrite, err)
	}
	if err := f.Sync(); err != nil {
		return faults.Wrap(faults.ErrPartialWrite, err)
	}
	return nil
}

// Recovery returns what Open found and repaired.
func (w *WAL) Recovery() RecoveryStats { return w.recov }

// openSegmentLocked creates the active segment file for w.seq and fsyncs the
// WAL directory so the new directory entry is itself durable — without that,
// a power loss after record fsyncs could drop the whole segment by losing its
// name. Callers hold w.mu (or are inside Open before the WAL escapes).
func (w *WAL) openSegmentLocked() error {
	f, err := os.OpenFile(filepath.Join(w.dir, segName(w.seq)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("collect: wal segment: %w", err))
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("collect: wal dir sync: %w", err))
	}
	w.f, w.size = f, 0
	return nil
}

// syncDir fsyncs a directory, making its entries (file creations and
// renames) durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Append durably logs one payload and returns the sequence number of the
// segment holding it. Under SyncAlways the record is on stable storage when
// Append returns; acknowledge the client only after. A failed write is
// repaired by truncating back to the last valid record; if even the repair
// fails the WAL is poisoned and every later Append returns the poisoning
// error, because the on-disk tail state is unknown.
func (w *WAL) Append(payload []byte) (uint64, error) {
	if err := checkPayload(len(payload)); err != nil {
		return 0, err
	}
	rec := make([]byte, recordHeaderSize+len(payload))
	copy(rec[recordHeaderSize:], payload)
	return w.appendRecord(rec, nil)
}

// checkPayload refuses a payload length no record may hold.
func checkPayload(n int) error {
	if n <= 0 || n > maxRecordBytes {
		return faults.Errorf(faults.ErrBadInput, "collect: record payload of %d bytes out of (0, %d]", n, maxRecordBytes)
	}
	return nil
}

// appendRecord is Append over a record framed in place: rec holds
// recordHeaderSize bytes of room for the header, which appendRecord fills,
// then the payload. The payload is not copied. A non-nil appended runs with
// the segment's sequence number after the record is durable under the
// policy, while the WAL's lock is still held, so calls follow record order
// and a segment seals only after every call for its records returned.
func (w *WAL) appendRecord(rec []byte, appended func(seq uint64)) (uint64, error) {
	if err := checkPayload(len(rec) - recordHeaderSize); err != nil {
		return 0, err
	}
	start := time.Now()
	defer func() { w.appendSeconds.Observe(time.Since(start).Seconds()) }()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, faults.Errorf(faults.ErrInternal, "collect: append on closed wal")
	}
	if w.poisoned != nil {
		return 0, w.poisoned
	}
	if w.size >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	payload := rec[recordHeaderSize:]
	binary.LittleEndian.PutUint32(rec, uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(payload))

	var dst io.Writer = w.f
	if w.opts.tapWriter != nil {
		dst = w.opts.tapWriter(w.f)
	}
	n, err := dst.Write(rec)
	if err != nil || n != len(rec) {
		if err == nil {
			err = io.ErrShortWrite
		}
		// Repair: bring the file back to the last record boundary so the
		// torn bytes cannot be mistaken for a record later.
		if rerr := w.repairLocked(); rerr != nil {
			w.poisoned = rerr
			return 0, rerr
		}
		return 0, faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("collect: wal append: %w", err))
	}
	w.size += int64(n)
	w.appendedBytes.Add(float64(n))
	switch w.opts.Policy {
	case SyncAlways:
		if err := w.syncLocked(); err != nil {
			// An fsync of unknown effect leaves the durable tail unknown;
			// poison rather than risk acknowledging lost data.
			w.poisoned = err
			return 0, err
		}
	case SyncInterval:
		if time.Since(w.lastSync) >= w.opts.SyncEvery {
			if err := w.syncLocked(); err != nil {
				w.poisoned = err
				return 0, err
			}
		}
	}
	if appended != nil {
		appended(w.seq)
	}
	return w.seq, nil
}

// repairLocked truncates the active segment back to w.size (the last record
// boundary) after a failed append.
func (w *WAL) repairLocked() error {
	if err := w.f.Truncate(w.size); err != nil {
		return faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("collect: wal repair: %w", err))
	}
	if _, err := w.f.Seek(w.size, io.SeekStart); err != nil {
		return faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("collect: wal repair: %w", err))
	}
	if err := w.f.Sync(); err != nil {
		return faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("collect: wal repair: %w", err))
	}
	return nil
}

// syncLocked fsyncs the active segment, feeding the fsync-latency histogram.
func (w *WAL) syncLocked() error {
	start := time.Now()
	err := w.f.Sync()
	w.fsyncSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		return faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("collect: wal fsync: %w", err))
	}
	w.lastSync = time.Now()
	return nil
}

// Sync forces the active segment to stable storage (used on drain under the
// interval/never policies).
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.poisoned != nil {
		return w.poisoned
	}
	return w.syncLocked()
}

// Rotate seals the active segment (sync + close) and opens the next one,
// reporting whether a seal happened. An empty active segment is left in
// place — sealing it would create empty files for the compactor to chew.
func (w *WAL) Rotate() (bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false, faults.Errorf(faults.ErrInternal, "collect: rotate on closed wal")
	}
	if w.poisoned != nil {
		return false, w.poisoned
	}
	if w.size == 0 {
		return false, nil
	}
	return true, w.rotateLocked()
}

func (w *WAL) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("collect: wal rotate: %w", err))
	}
	w.seq++
	return w.openSegmentLocked()
}

// Sealed lists the immutable (non-active) segments in sequence order.
func (w *WAL) Sealed() ([]SegmentInfo, error) {
	w.mu.Lock()
	active := w.seq
	w.mu.Unlock()
	segs, err := listSegments(w.dir)
	if err != nil {
		return nil, err
	}
	sealed := segs[:0]
	for _, s := range segs {
		if s.Seq < active {
			sealed = append(sealed, s)
		}
	}
	return sealed, nil
}

// ActiveSeq returns the active segment's sequence number.
func (w *WAL) ActiveSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// DiskBytes returns the total on-disk size of every WAL segment, and
// SegmentCount the number of segment files — the raw material for the
// wal_disk_bytes and wal_segments gauges. Both tolerate races with the
// compactor deleting segments (a vanished file counts as zero).
func (w *WAL) DiskBytes() int64 {
	segs, err := listSegments(w.dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, s := range segs {
		if info, err := os.Stat(s.Path); err == nil {
			total += info.Size()
		}
	}
	return total
}

// SegmentCount returns the number of on-disk WAL segment files.
func (w *WAL) SegmentCount() int {
	segs, err := listSegments(w.dir)
	if err != nil {
		return 0
	}
	return len(segs)
}

// Close syncs and closes the active segment. The WAL is unusable after.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.poisoned == nil {
		if err := w.syncLocked(); err != nil {
			w.f.Close()
			return err
		}
	}
	return w.f.Close()
}

// abort closes the segment file handle without syncing — the in-process
// stand-in for kill -9 in tests. The WAL takes no further appends.
func (w *WAL) abort() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	w.f.Close()
}

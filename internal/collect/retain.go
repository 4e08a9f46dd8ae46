package collect

import "sync"

// retention keeps the batches the acks decoded, listed by the WAL segment
// their records went to, so the fold of a sealed segment can fold them
// instead of reading the segment back and decoding it again.
//
// A segment folds from memory only when its list is complete: every record
// appended to the segment is on it, in WAL order. An ack registers its
// batch from inside the WAL's append, under the WAL's lock, so lists follow
// WAL order, and a segment is sealed under that lock too, after every
// append to it has registered. A failed append registers nothing and
// leaves the lists complete: the WAL either truncated the torn record away
// or is poisoned, and a poisoned WAL seals no segment, so nothing folds
// after it. A segment with no list (one recovered at start-up) or a
// refused list folds from the WAL.
//
// A list holds its whole segment, however the segment was sealed: the WAL
// appends to a segment only while it is under limit, the rotation
// threshold, so a list is under limit plus the record that crosses it. A
// segment starts a list only while the lists already held total under
// limit; a segment that starts without one keeps none of its records. The
// payload bytes held therefore stay under twice limit plus one record. A
// list is kept, and counted, until its fold ends, whether the fold
// succeeds or fails; the retry of a failed fold finds no list and reads
// the WAL.
//
// A list owns the batches it keeps until release hands them back, for the
// Service to recycle.
type retention struct {
	limit int64

	mu    sync.Mutex
	bytes int64
	segs  map[uint64]*retainedSeg
}

type retainedSeg struct {
	batches []*batchCols
	bytes   int64
	refused bool
}

func newRetention(limit int64) *retention {
	return &retention{limit: limit, segs: make(map[uint64]*retainedSeg)}
}

// add registers b, whose WAL payload is size bytes, as the next record of
// segment seq, and reports whether segment seq's list kept it. A batch
// kept belongs to the list until release.
func (r *retention) add(seq uint64, b *batchCols, size int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	seg := r.segs[seq]
	if seg == nil {
		seg = &retainedSeg{refused: r.bytes >= r.limit}
		r.segs[seq] = seg
	}
	if seg.refused {
		return false
	}
	seg.batches = append(seg.batches, b)
	seg.bytes += size
	r.bytes += size
	return true
}

// list returns segment seq's batches and whether the list is complete. A
// sealed segment's list no longer changes, so the caller may read it after
// list returns.
func (r *retention) list(seq uint64) ([]*batchCols, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	seg := r.segs[seq]
	if seg == nil || seg.refused {
		return nil, false
	}
	return seg.batches, true
}

// release forgets segment seq's list once its fold has ended, either way,
// and returns the batches it kept, which nothing reads any more.
func (r *retention) release(seq uint64) []*batchCols {
	r.mu.Lock()
	defer r.mu.Unlock()
	seg := r.segs[seq]
	if seg == nil {
		return nil
	}
	r.bytes -= seg.bytes
	delete(r.segs, seq)
	return seg.batches
}

// heldBytes returns the payload bytes of every list held.
func (r *retention) heldBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes
}

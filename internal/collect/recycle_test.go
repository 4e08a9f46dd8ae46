package collect

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"privateclean/internal/privacy"
)

// TestBatchColsRecycled: a body decoded into a recycled batchCols holds
// exactly the columns a fresh one decodes, whatever the batch last held: a
// longer or shorter batch, one under a wider or a narrower schema, one
// naming an unknown attribute, or one decoded through encoding/json.
func TestBatchColsRecycled(t *testing.T) {
	narrowMeta := collectMeta()
	wideMeta := collectMeta()
	wideMeta.Discrete["minor"] = privacy.DiscreteMeta{Name: "minor", P: 0.25, Domain: []string{"x", "y"}}
	wideMeta.Numeric["extra"] = privacy.NumericMeta{Name: "extra", B: 1, Delta: 5}
	codec := func(meta *privacy.ViewMeta) *batchSchema {
		schema, err := SchemaFor(meta)
		if err != nil {
			t.Fatal(err)
		}
		return newBatchSchema(schema, meta)
	}
	narrow, wide := codec(narrowMeta), codec(wideMeta)
	body := func(b Batch, indent bool) []byte {
		var data []byte
		var err error
		if indent {
			data, err = json.MarshalIndent(b, "", " ")
		} else {
			data, err = json.Marshal(b)
		}
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	wideBatch := makeBatches(t, wideMeta, 3, 1, 40)[0]
	wideBatch.Reports[1].Discrete["minor"] = "z"
	cases := []struct {
		name string
		bs   *batchSchema
		body []byte
	}{
		{"narrow-short", narrow, body(retainBatches(t)[3], false)},
		{"narrow-long", narrow, body(makeBatches(t, narrowMeta, 4, 1, 60)[0], false)},
		{"narrow-fallback", narrow, body(retainBatches(t)[2], true)},
		{"narrow-unknown", narrow, body(wideBatch, false)},
		{"wide", wide, body(wideBatch, false)},
		{"wide-short", wide, body(makeBatches(t, wideMeta, 5, 1, 2)[0], false)},
	}
	decode := func(bs *batchSchema, b *batchCols, data []byte) {
		t.Helper()
		d := batchDecoder{bs: bs}
		if _, err := d.decode(b, data); err != nil {
			t.Fatal(err)
		}
	}
	for _, prev := range cases {
		for _, cur := range cases {
			var fresh batchCols
			decode(cur.bs, &fresh, cur.body)
			recycled := new(batchCols)
			decode(prev.bs, recycled, prev.body)
			decode(cur.bs, recycled, cur.body)
			if got, want := fmt.Sprintf("%#v", *recycled), fmt.Sprintf("%#v", fresh); got != want {
				t.Errorf("%s after %s:\n got %s\nwant %s", cur.name, prev.name, got, want)
			}
		}
	}
}

// integerBatches are n batches of per reports each with integer scores, so
// their sums are exact in any order a collector folds them in.
func integerBatches(meta *privacy.ViewMeta, n, per int) []Batch {
	mech := privacy.MechanismFingerprint(meta)
	majors := []string{"CS", "EE", "ME", "other"}
	batches := make([]Batch, n)
	for i := range batches {
		batches[i] = Batch{ID: fmt.Sprintf("int-%03d", i), Mechanism: mech}
		for j := 0; j < per; j++ {
			k := i*per + j
			batches[i].Reports = append(batches[i].Reports, privacy.Report{
				Discrete: map[string]string{"major": majors[k%len(majors)]},
				Numeric:  map[string]float64{"score": float64(k % 97)},
			})
		}
	}
	return batches
}

// TestRecycleUnderCompaction: two clients ack while a 1 ms compactor folds
// their segments from retained batches and recycles those batches for
// later acks. Every ack names its own batch, and the final /v1/stats is a
// serial run's over the same batches. Run under -race it also checks that
// no ack reads its batch after a fold may have recycled it.
func TestRecycleUnderCompaction(t *testing.T) {
	batches := integerBatches(collectMeta(), 80, 16)
	ref := newTestService(t, t.TempDir(), nil)
	for _, b := range batches {
		mustPost(t, ref.Handler(), b)
	}
	want := getStats(t, ref.Handler())
	if err := ref.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	tel := newTracedTel()
	s := newTestService(t, t.TempDir(), func(c *Config) {
		c.Tel = tel
		c.CompactEvery = time.Millisecond
	})
	h := s.Handler()
	var wg sync.WaitGroup
	errs := make(chan error, len(batches))
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(batches); i += 2 {
				body, err := json.Marshal(batches[i])
				if err != nil {
					errs <- err
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/report", bytes.NewReader(body)))
				var ack reportResponse
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &ack) != nil {
					errs <- fmt.Errorf("POST %s = %d: %s", batches[i].ID, rec.Code, rec.Body)
					return
				}
				if ack != (reportResponse{BatchID: batches[i].ID, Reports: len(batches[i].Reports)}) {
					errs <- fmt.Errorf("POST %s acked %+v", batches[i].ID, ack)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := getStats(t, h); !bytes.Equal(got, want) {
		t.Errorf("/v1/stats after concurrent acks and folds differs from a serial run's:\n got %s\nwant %s", got, want)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := foldSources(tel)["memory"]; n == 0 {
		t.Errorf("no segment folded from retained batches: %v", foldSources(tel))
	}
}

// ackLoad is a collector and pre-rendered /v1/report bodies of 256 reports
// each, renumbered in place so that every round posts new batch IDs.
type ackLoad struct {
	s      *Service
	h      http.Handler
	bodies [][]byte
	round  int
}

// idAt is where a body's batch ID starts: json.Marshal renders batch_id
// first.
const idAt = len(`{"batch_id":"`)

func newAckLoad(tb testing.TB, dir string, n int) *ackLoad {
	tb.Helper()
	s, err := New(Config{Dir: dir, Meta: collectMeta(), Fsync: SyncNever})
	if err != nil {
		tb.Fatal(err)
	}
	l := &ackLoad{s: s, h: s.Handler()}
	for _, b := range makeBatches(tb, collectMeta(), 11, n, 256) {
		b.ID = "r000000-b000"
		body, err := json.Marshal(b)
		if err != nil {
			tb.Fatal(err)
		}
		l.bodies = append(l.bodies, body)
	}
	return l
}

// renumber gives every body a batch ID no earlier round used.
func (l *ackLoad) renumber() {
	l.round++
	for i, body := range l.bodies {
		copy(body[idAt:], fmt.Sprintf("r%06d-b%03d", l.round, i))
	}
}

// post acks body i.
func (l *ackLoad) post(tb testing.TB, i int) {
	rec := httptest.NewRecorder()
	l.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/report", bytes.NewReader(l.bodies[i])))
	if rec.Code != http.StatusOK {
		tb.Fatalf("POST body %d: HTTP %d: %s", i, rec.Code, rec.Body)
	}
}

// fill renumbers the bodies and acks them all.
func (l *ackLoad) fill(tb testing.TB) {
	l.renumber()
	for i := range l.bodies {
		l.post(tb, i)
	}
}

// compact folds every acked batch, each segment from its retained list.
func (l *ackLoad) compact(tb testing.TB) {
	if _, err := l.s.Compact(); err != nil {
		tb.Fatal(err)
	}
}

func (l *ackLoad) close(tb testing.TB) {
	if err := l.s.Shutdown(context.Background()); err != nil {
		tb.Fatal(err)
	}
}

// Allocation ceilings of one warm ack of a 256-report batch through the
// handler (the recorder and request included) and of one fold of a
// segment of 64 such acks from their retained batches, compaction pass and
// checkpoint included: a few above the measured counts, so a per-report
// or per-record allocation breaks them.
const (
	maxAckAllocs  = 30
	maxFoldAllocs = 655
)

// TestReportAllocBudget holds a warm ack and the fold of a retained
// segment to their allocation ceilings.
func TestReportAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops its items under the race detector")
	}
	l := newAckLoad(t, t.TempDir(), 64)
	defer l.close(t)
	for warm := 0; warm < 2; warm++ {
		l.fill(t)
		l.compact(t)
	}
	l.renumber()
	i := 0
	ack := testing.AllocsPerRun(50, func() {
		l.post(t, i)
		i++
	})
	t.Logf("ack: %.0f allocs", ack)
	if ack > maxAckAllocs {
		t.Errorf("ack: %.0f allocs, budget %d", ack, maxAckAllocs)
	}
	l.compact(t)
	if debugChecks {
		return // the fold then re-reads and decodes its segment
	}
	// The fold's count is the least of a few rounds, each measured alone.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fold := uint64(1 << 62)
	for round := 0; round < 5; round++ {
		l.fill(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l.compact(t)
		runtime.ReadMemStats(&after)
		fold = min(fold, after.Mallocs-before.Mallocs)
	}
	t.Logf("fold: %d allocs", fold)
	if fold > maxFoldAllocs {
		t.Errorf("fold: %d allocs, budget %d", fold, maxFoldAllocs)
	}
}

// BenchmarkReportAck measures a warm ack of a 256-report batch through the
// handler, and the fold of a segment of 64 such acks from their retained
// batches, allocations included.
func BenchmarkReportAck(b *testing.B) {
	b.Run("ack", func(b *testing.B) {
		l := newAckLoad(b, b.TempDir(), 64)
		defer l.close(b)
		l.fill(b)
		l.compact(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % len(l.bodies)
			if k == 0 {
				b.StopTimer()
				l.compact(b)
				l.renumber()
				b.StartTimer()
			}
			l.post(b, k)
		}
	})
	b.Run("fold", func(b *testing.B) {
		l := newAckLoad(b, b.TempDir(), 64)
		defer l.close(b)
		l.fill(b)
		l.compact(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			l.fill(b)
			b.StartTimer()
			l.compact(b)
		}
	})
}

package collect

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"privateclean/internal/atomicio"
	"privateclean/internal/estimator"
	"privateclean/internal/faults"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
)

// refWindow is the window a batch folds as, built the reference way: one
// relation.Builder row per report, absent attributes missing.
func refWindow(t testing.TB, schema relation.Schema, b Batch) *relation.Relation {
	t.Helper()
	win, err := refBuild(schema, b)
	if err != nil {
		t.Fatal(err)
	}
	return win
}

func refBuild(schema relation.Schema, b Batch) (*relation.Relation, error) {
	builder := relation.NewBuilder(schema)
	for _, rep := range b.Reports {
		builder.Append(rep.Numeric, rep.Discrete)
	}
	return builder.Relation()
}

// refStore is the reference fold: json.Unmarshal of each payload, a
// relation.Builder window, and Collector.Add on a clone of the statistics
// taken through their JSON form — the round trip a checkpoint reload takes.
// It writes its checkpoint exactly as Store does, so the two can be
// compared byte for byte.
type refStore struct {
	path, mech string
	schema     relation.Schema
	applied    uint64
	batches    map[string]struct{}
	coll       *estimator.Collector
}

func openRefStore(t testing.TB, path string, schema relation.Schema, mech string) *refStore {
	t.Helper()
	r := &refStore{path: path, mech: mech, schema: schema, batches: make(map[string]struct{})}
	var ck checkpointFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &ck); err != nil {
			t.Fatal(err)
		}
	}
	coll, err := estimator.NewCollectorFrom(ck.Stats)
	if err != nil {
		t.Fatal(err)
	}
	r.applied, r.coll = ck.AppliedSeq, coll
	for _, id := range ck.Batches {
		r.batches[id] = struct{}{}
	}
	return r
}

func jsonClone(c *estimator.Collector) (*estimator.Collector, error) {
	st := c.Statistics()
	if len(st.Columns) == 0 {
		return estimator.NewCollectorFrom(nil)
	}
	data, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	var copied estimator.Statistics
	if err := json.Unmarshal(data, &copied); err != nil {
		return nil, err
	}
	return estimator.NewCollectorFrom(&copied)
}

func (r *refStore) fold(seq uint64, payloads [][]byte) ([]FoldedBatch, error) {
	if seq <= r.applied {
		return nil, nil
	}
	staged, err := jsonClone(r.coll)
	if err != nil {
		return nil, err
	}
	var folded []FoldedBatch
	newIDs := make(map[string]struct{})
	for _, payload := range payloads {
		var b Batch
		if err := json.Unmarshal(payload, &b); err != nil {
			return nil, faults.Wrap(faults.ErrCorruptCheckpoint, err)
		}
		if b.ID == "" {
			return nil, faults.Errorf(faults.ErrCorruptCheckpoint, "empty batch id")
		}
		if _, ok := r.batches[b.ID]; ok {
			continue
		}
		if _, ok := newIDs[b.ID]; ok {
			continue
		}
		win, err := refBuild(r.schema, b)
		if err != nil {
			return nil, faults.Wrap(faults.ErrCorruptCheckpoint, err)
		}
		if err := staged.Add(win); err != nil {
			return nil, err
		}
		newIDs[b.ID] = struct{}{}
		folded = append(folded, FoldedBatch{ID: b.ID, TraceID: b.TraceID})
	}
	ids := make([]string, 0, len(r.batches)+len(newIDs))
	for id := range r.batches {
		ids = append(ids, id)
	}
	for id := range newIDs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if err := atomicio.WriteJSON(r.path, checkpointFile{
		Version: storeVersion, Mechanism: r.mech, AppliedSeq: seq, Batches: ids, Stats: staged.Statistics(),
	}); err != nil {
		return nil, err
	}
	r.coll, r.applied = staged, seq
	for id := range newIDs {
		r.batches[id] = struct{}{}
	}
	return folded, nil
}

func (r *refStore) marshalStats(t testing.TB) []byte {
	t.Helper()
	data, err := json.MarshalIndent(r.coll.Statistics(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// foldPair folds the same segments through a Store and the reference,
// side by side, and through a second Store that folds the batches decoded
// the way an ack decodes them, from retained columns.
type foldPair struct {
	store, mem *Store
	ref        *refStore
	// ack decodes as the service does: discrete values in the domains
	// foldMeta gives resolve to the domain's strings, others are interned.
	ack *batchSchema
}

// foldSchema has two discrete and two numeric attributes, so reports can
// leave some absent and the resumed statistics can carry a joint.
func foldSchema() relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "major", Kind: relation.Discrete},
		relation.Column{Name: "minor", Kind: relation.Discrete},
		relation.Column{Name: "grade", Kind: relation.Numeric},
		relation.Column{Name: "score", Kind: relation.Numeric},
	)
}

// foldMeta gives foldSchema's discrete attributes domains that hold some
// of the fixtures' values and miss others.
func foldMeta() *privacy.ViewMeta {
	return &privacy.ViewMeta{Discrete: map[string]privacy.DiscreteMeta{
		"major": {Domain: []string{"CS", "EE", "NULL"}},
		"minor": {Domain: []string{"", "EE", "ME"}},
	}}
}

// newFoldPair opens the stores, from a copy of the checkpoint bytes ck
// when it is non-nil.
func newFoldPair(t testing.TB, ck []byte) *foldPair {
	t.Helper()
	dir := t.TempDir()
	paths := [3]string{filepath.Join(dir, "store.json"), filepath.Join(dir, "mem.json"), filepath.Join(dir, "ref.json")}
	if ck != nil {
		for _, p := range paths {
			if err := os.WriteFile(p, ck, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	var stores [2]*Store
	for i := range stores {
		var err error
		if stores[i], err = OpenStore(paths[i], foldSchema(), "m"); err != nil {
			t.Fatal(err)
		}
	}
	return &foldPair{store: stores[0], mem: stores[1], ref: openRefStore(t, paths[2], foldSchema(), "m"),
		ack: newBatchSchema(foldSchema(), foldMeta())}
}

// fold folds one segment into each store and requires the same folded
// batches, the same error kind, and byte-identical checkpoints and
// statistics. A segment holding a payload the ack decoder refuses has no
// retained form, since no ack retains a batch it cannot decode: the WAL
// fold must refuse it as corrupt, or skip it as already applied, and the
// columns store skips it too.
func (p *foldPair) fold(t testing.TB, seq uint64, payloads ...[]byte) {
	t.Helper()
	applied := p.store.AppliedSeq()
	got, err := p.store.Fold(seq, payloads)
	want, refErr := p.ref.fold(seq, payloads)
	if (err == nil) != (refErr == nil) || faults.Kind(err) != faults.Kind(refErr) {
		t.Fatalf("fold %d: error %v, reference %v", seq, err, refErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fold %d: folded %v, reference %v", seq, got, want)
	}
	p.same(t, seq, p.store, "WAL")
	batches := make([]*batchCols, len(payloads))
	for i, payload := range payloads {
		d := batchDecoder{bs: p.ack}
		batches[i] = new(batchCols)
		if _, decErr := d.decode(batches[i], payload); decErr != nil {
			if err == nil && seq > applied || err != nil && !errors.Is(err, faults.ErrCorruptCheckpoint) {
				t.Fatalf("fold %d: record %d does not decode (%v), yet the WAL fold gave %v", seq, i, decErr, err)
			}
			return
		}
	}
	memGot, memErr := p.mem.foldBatches(seq, batches)
	if (memErr == nil) != (err == nil) || faults.Kind(memErr) != faults.Kind(err) {
		t.Fatalf("fold %d: columns error %v, WAL error %v", seq, memErr, err)
	}
	if !reflect.DeepEqual(memGot, got) {
		t.Fatalf("fold %d: columns folded %v, WAL folded %v", seq, memGot, got)
	}
	p.same(t, seq, p.mem, "columns")
}

// same requires store's checkpoint and statistics bytes to be the
// reference's.
func (p *foldPair) same(t testing.TB, seq uint64, store *Store, leg string) {
	t.Helper()
	gotCk, err := os.ReadFile(store.path)
	wantCk, refErr := os.ReadFile(p.ref.path)
	if (err == nil) != (refErr == nil) || !bytes.Equal(gotCk, wantCk) {
		t.Fatalf("fold %d: %s checkpoint differs from the reference:\n%s\nvs\n%s", seq, leg, gotCk, wantCk)
	}
	stats, err := store.MarshalStats()
	if err != nil {
		t.Fatal(err)
	}
	if want := p.ref.marshalStats(t); !bytes.Equal(stats, want) {
		t.Fatalf("fold %d: %s statistics differ from the reference:\n%s\nvs\n%s", seq, leg, stats, want)
	}
}

// foldPayloads are the payloads TestFoldMatchesReference folds: canonical
// and non-canonical encodings, absent attributes, literal "NULL" values,
// and a batch with no reports.
var foldPayloads = map[string]string{
	"b1": `{"batch_id":"b1","mechanism":"m","reports":[{"discrete":{"major":"CS","minor":"NULL"},"numeric":{"grade":3.5,"score":51}},{"discrete":{"major":"NULL"}},{}],"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736"}`,
	"b2": "{\n  \"batch_id\": \"b2\",\n  \"mechanism\": \"m\",\n  \"reports\": [{\"numeric\": {\"score\": -0}}, {\"discrete\": {\"minor\": \"EE\"}}]\n}\n",
	"b3": `{"reports":[{"numeric":{"score":1e-7},"discrete":{"minor":"EE","major":"CS"}},{"discrete":{"major":"C\u0053"}}],"batch_id":"b3","mechanism":"m"}`,
	"b4": `{"batch_id":"b4","mechanism":"m","reports":null}`,
	"b5": `{"batch_id":"b5","mechanism":"m","reports":[{"discrete":{"major":"ME","major":"EE"},"numeric":{"grade":1e21}},{"discrete":{"major":"NULL","minor":"NULL"}}]}`,
	"b6": `{"batch_id":"b6","mechanism":"m","reports":[{"discrete":{"major":"","minor":"\u2028\u003c"},"numeric":{"grade":2}},{"numeric":{"score":99.25}}]}`,
}

func fixtures(ids ...string) [][]byte {
	out := make([][]byte, len(ids))
	for i, id := range ids {
		out[i] = []byte(foldPayloads[id])
	}
	return out
}

// TestFoldMatchesReference holds Store.Fold, and the fold from decoded
// columns, to the reference fold: the same checkpoint and /v1/stats bytes
// after every segment, through duplicate IDs within and across segments, a
// replayed segment, a corrupt record, and a store resumed from statistics
// carrying histograms and a joint.
func TestFoldMatchesReference(t *testing.T) {
	run := func(t *testing.T, p *foldPair, base uint64) {
		p.fold(t, base+1, fixtures("b1", "b2", "b1", "b3")...)
		p.fold(t, base+1, fixtures("b4")...) // replayed: skipped wholesale
		p.fold(t, base+2, fixtures("b2", "b4", "b5", "b4")...)
		p.fold(t, base+3, []byte(`{"batch_id":"bad","mechanism":"m","reports":[{"discrete":{"zeta":"x"}}]}`))
		p.fold(t, base+3, []byte(`{"batch_id":"","mechanism":"m","reports":[{}]}`))
		p.fold(t, base+3, []byte(`{"batch_id":`))
		p.fold(t, base+3, fixtures("b6", "b3")...)
	}
	t.Run("fresh", func(t *testing.T) { run(t, newFoldPair(t, nil), 0) })
	t.Run("resumed", func(t *testing.T) {
		rel, err := relation.FromColumns(foldSchema(),
			map[string][]float64{"grade": {1, math.NaN(), 4, 2}, "score": {10, 20, math.NaN(), 70}},
			map[string][]string{"major": {"CS", "EE", "CS", relation.Null}, "minor": {"EE", "EE", "ME", "CS"}})
		if err != nil {
			t.Fatal(err)
		}
		st, err := estimator.CollectStatisticsWith(relation.NewSliceIterator(rel, 2), estimator.CollectOpts{
			BinEdges: map[string][]float64{"score": {0, 25, 50, 100}, "grade": {0, 2, 5}},
			Joints:   [][2]string{{"minor", "major"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		// The second list is out of order and repeats an ID, as no fold
		// writes it: loading sorts it once, and every later checkpoint
		// lists the IDs as the reference does.
		for _, ids := range [][]string{{"b2", "old"}, {"old", "b2", "old"}} {
			ck, err := json.MarshalIndent(checkpointFile{
				Version: storeVersion, Mechanism: "m", AppliedSeq: 4, Batches: ids, Stats: st,
			}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			run(t, newFoldPair(t, ck), 4)
		}
	})
}

// FuzzFoldMatchesReference folds an arbitrary payload, twice in one
// segment and again in the next, next to a fixed batch, through Store.Fold,
// the fold from decoded columns and the reference fold: all must agree on
// the error kind, the folded batches, and the checkpoint and statistics
// bytes.
func FuzzFoldMatchesReference(f *testing.F) {
	for _, s := range codecSeeds {
		f.Add([]byte(s))
	}
	for _, s := range foldPayloads {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		p := newFoldPair(t, nil)
		p.fold(t, 1, fixtures("b1")[0], payload, payload)
		p.fold(t, 2, payload, fixtures("b5")[0])
	})
}

// TestStoreFoldSharesNoState: a fold's staged copy shares nothing with the
// published statistics, so a reader holding the published Statistics sees
// the bytes it read, fold after fold.
func TestStoreFoldSharesNoState(t *testing.T) {
	p := newFoldPair(t, nil)
	p.fold(t, 1, fixtures("b1")...)
	published := p.store.collector().Statistics()
	before, err := json.Marshal(published)
	if err != nil {
		t.Fatal(err)
	}
	p.fold(t, 2, fixtures("b5", "b6")...)
	after, err := json.Marshal(published)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("a fold mutated the previously published statistics:\n%s\nvs\n%s", before, after)
	}
}

// BenchmarkFoldWindow folds one 64-batch segment of 256 reports each into
// a store resumed from a checkpoint of another 64 batches: decode, window,
// accumulate, and the checkpoint write.
func BenchmarkFoldWindow(b *testing.B) {
	meta := collectMeta()
	schema, err := SchemaFor(meta)
	if err != nil {
		b.Fatal(err)
	}
	mech := "mech-fingerprint"
	batches := makeBatches(b, meta, 11, 128, 256)
	segment := func(bs []Batch) [][]byte {
		out := make([][]byte, len(bs))
		for i, batch := range bs {
			if out[i], err = json.Marshal(batch); err != nil {
				b.Fatal(err)
			}
		}
		return out
	}
	seeded, timed := segment(batches[:64]), segment(batches[64:])
	dir := b.TempDir()
	template := filepath.Join(dir, "template.json")
	store, err := OpenStore(template, schema, mech)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := store.Fold(1, seeded); err != nil {
		b.Fatal(err)
	}
	ck, err := os.ReadFile(template)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		path := filepath.Join(dir, fmt.Sprintf("store-%d.json", i))
		if err := os.WriteFile(path, ck, 0o644); err != nil {
			b.Fatal(err)
		}
		s, err := OpenStore(path, schema, mech)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := s.Fold(2, timed); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		os.Remove(path)
		b.StartTimer()
	}
}

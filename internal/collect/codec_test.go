package collect

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"testing"

	"privateclean/internal/privacy"
)

// codecSeeds are the inputs FuzzBatchCodec starts from (and `go test`
// checks): canonical batches the fast path takes, and every shape that must
// fall through to encoding/json.
var codecSeeds = []string{
	`{"batch_id":"b1","mechanism":"m","reports":[{"discrete":{"major":"CS"},"numeric":{"score":51.5}},{"discrete":{"major":"EE"}}],"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736"}`,
	`{"batch_id":"b","mechanism":"m","reports":[{},{}]}`,
	`{"batch_id":"b","mechanism":"m","reports":[]}`,
	`{"batch_id":"b","mechanism":"m","reports":null}`,
	`{"batch_id":"b","mechanism":"m","reports":[{"discrete":{},"numeric":{}}]}`,
	`{"reports":[{"numeric":{"score":-0}}],"mechanism":"m","batch_id":"b"}`,
	`{"batch_id":"b","mechanism":"m","reports":[{"numeric":{"a":1e-7,"b":1e21,"c":123456789012345678901,"d":-1.5E+3,"e":0.000001}}]}`,
	`{"batch_id":"b","mechanism":"m","reports":[{"numeric":{"score":1e400}}]}`,
	`{"batch_id":"b","mechanism":"m","reports":[{"numeric":{"score":1e-300}}]}`,
	`{"batch_id":"b","mechanism":"m","reports":[{"numeric":{"score":01}}]}`,
	`{"batch_id":"b","mechanism":"m","reports":[{"numeric":{"score":1.}}]}`,
	`{"batch_id":"b","mechanism":"m","reports":[{"numeric":{"score":"1"}}]}`,
	`{"batch_id":"b","mechanism":"m","reports":[{"numeric":{"score":null}}]}`,
	`{ "batch_id": "b", "mechanism": "m", "reports": [ {} ] }`,
	"{\n  \"batch_id\": \"b\",\n  \"mechanism\": \"m\",\n  \"reports\": [{}]\n}\n",
	`{"batch_id":"b\"q","mechanism":"m","reports":[{"discrete":{"major":"\u00e9"}}]}`,
	`{"batch_id":"b","mechanism":"m","reports":[{"discrete":{"major":"é"}}]}`,
	`{"batch_id":"b","mechanism":"m","reports":[{"discrete":{"major":"a"},"discrete":{"minor":"b"}}]}`,
	`{"batch_id":"b","mechanism":"m","reports":[{"discrete":{"major":"a","major":"b"}}]}`,
	`{"Batch_ID":"b","mechanism":"m","reports":[{}]}`,
	`{"batch_id":"b","batch_id":"c","mechanism":"m","reports":[{}]}`,
	`{"batch_id":"b","mechanism":"m","reports":[{}],"extra":1}`,
	`{"batch_id":"b","mechanism":"m","reports":[{"discrete":{"major":"<a&b>"}}]}`,
	`{"batch_id":"b","mechanism":"m","reports":[{"discrete":{"ma\"jor":"x"}}]}`,
	`{"batch_id":"b","mechanism":"m","reports":[{"discrete":{"major":"\u2028"}}]}`,
	"{\"batch_id\":\"b\xff\",\"mechanism\":\"m\",\"reports\":[{}]}",
	"{\"batch_id\":\"b\x01\",\"mechanism\":\"m\",\"reports\":[{}]}",
	`{"batch_id":"b","mechanism":"m","reports":[{}]}x`,
	`{"batch_id":"b","mechanism":"m","reports":[{},]}`,
	`{"batch_id":5,"mechanism":"m","reports":[{}]}`,
	`{}`,
	`null`,
	`[]`,
	``,
	// A literal "NULL" is a value, distinct from an absent attribute.
	`{"batch_id":"b","mechanism":"m","reports":[{"discrete":{"major":"NULL","minor":"x"}},{"discrete":{"minor":"NULL"}}]}`,
	`{"batch_id":"b","mechanism":"m","reports":[{"discrete":{"major":""}},{"discrete":{"":"x"}}]}`,
	`{"batch_id":"b","mechanism":"m","reports":[{"numeric":{"score":1}},{"discrete":{"minor":"y"}},{}]}`,
	`{"batch_id":"b","mechanism":"m","reports":[{"discrete":{"major":"x"}},{"discrete":{"zeta":"x","alpha":"y"},"numeric":{"aa":1}},{"discrete":{"beta":"z"}}]}`,
	`{"batch_id":"b","mechanism":"m","reports":[{"numeric":{"zz":1,"score":2,"yy":3}}]}`,
	`{"batch_id":"b","mechanism":"m","reports":[{"numeric":{"score":1,"score":2},"discrete":{"major":"a","minor":"b","major":"c"}}]}`,
	`{"batch_id":"b","mechanism":"m","reports":[{"numeric":{"score":1}}],"reports":[{"numeric":{"score":2}}]}`,
}

// codecService is the validation context of the codec tests: mechanism "m"
// (the seeds' own) over attributes the seeds name, so most seeds get past
// validation and exercise the encoder. major's domain holds some of the
// seeds' values, so the decoder resolves those through the domain and
// interns the rest.
func codecService() *Service {
	meta := &privacy.ViewMeta{
		Discrete: map[string]privacy.DiscreteMeta{"major": {Domain: []string{"", "CS", "EE", "NULL", "a"}}, "minor": {}, `ma"jor`: {}},
		Numeric:  map[string]privacy.NumericMeta{"score": {}, "a": {}, "b": {}, "c": {}, "d": {}, "e": {}},
	}
	schema, err := SchemaFor(meta)
	if err != nil {
		panic(err)
	}
	return &Service{meta: meta, mech: "m", schema: schema, codec: newBatchSchema(schema, meta), maxBatch: DefaultMaxBatchReports}
}

// refAck is the /v1/report decode and validation as the reference renders
// it: json.Unmarshal into a Batch, the map-walking validation, and
// json.Marshal for the WAL payload. Within a report it names the smallest
// unknown attribute, discrete before numeric.
func refAck(s *Service, body []byte) (status int, code, msg string, payload []byte) {
	var b Batch
	if err := json.Unmarshal(body, &b); err != nil {
		return http.StatusBadRequest, "bad_batch",
			`body must be JSON {"batch_id", "mechanism", "reports": [...]}: ` + err.Error(), nil
	}
	switch {
	case b.ID == "" || len(b.ID) > maxBatchIDLen:
		return http.StatusBadRequest, "bad_batch", fmt.Sprintf("batch_id must be 1..%d bytes", maxBatchIDLen), nil
	case b.Mechanism != s.mech:
		return http.StatusUnprocessableEntity, "mechanism_mismatch",
			"batch was randomized under a different mechanism than this collector serves", nil
	case len(b.Reports) == 0:
		return http.StatusBadRequest, "bad_batch", "batch has no reports", nil
	case len(b.Reports) > s.maxBatch:
		return http.StatusRequestEntityTooLarge, "bad_batch",
			fmt.Sprintf("batch of %d reports exceeds the %d-report bound", len(b.Reports), s.maxBatch), nil
	}
	for i, rep := range b.Reports {
		for _, name := range sortedNames(rep.Discrete) {
			if _, ok := s.meta.Discrete[name]; !ok {
				return http.StatusUnprocessableEntity, "bad_batch",
					fmt.Sprintf("report %d: unknown discrete attribute %q", i, name), nil
			}
		}
		for _, name := range sortedNames(rep.Numeric) {
			if _, ok := s.meta.Numeric[name]; !ok {
				return http.StatusUnprocessableEntity, "bad_batch",
					fmt.Sprintf("report %d: unknown numeric attribute %q", i, name), nil
			}
			if x := rep.Numeric[name]; math.IsNaN(x) || math.IsInf(x, 0) {
				return http.StatusUnprocessableEntity, "bad_batch",
					fmt.Sprintf("report %d: non-finite value for %q", i, name), nil
			}
		}
	}
	payload, err := json.Marshal(b)
	if err != nil {
		panic(err) // a decoded batch holds only finite numbers
	}
	return 0, "", "", payload
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// checkCodec holds one body to the reference: the same (status, code,
// message), and for an accepted batch the same WAL payload bytes. The
// payload must also decode, as the fold's WAL path decodes it, to exactly
// the batch the ack decoded, which is what a fold from retained columns
// folds in its place.
func checkCodec(t *testing.T, s *Service, body []byte) {
	t.Helper()
	b, _, status, code, msg := s.decodeReport(body)
	wantStatus, wantCode, wantMsg, wantPayload := refAck(s, body)
	if status != wantStatus || code != wantCode || msg != wantMsg {
		t.Fatalf("ack %q:\n got %d %s %q\nwant %d %s %q", body, status, code, msg, wantStatus, wantCode, wantMsg)
	}
	if status != 0 {
		return
	}
	got := s.codec.appendBatch(nil, b)
	if !bytes.Equal(got, wantPayload) {
		t.Fatalf("payload of %q:\n got %s\nwant %s", body, got, wantPayload)
	}
	d := batchDecoder{bs: newBatchSchema(s.schema, nil)}
	var replayed batchCols
	if _, err := d.decode(&replayed, got); err != nil {
		t.Fatalf("payload %s does not decode: %v", got, err)
	}
	if fmt.Sprintf("%#v", replayed) != fmt.Sprintf("%#v", *b) {
		t.Fatalf("payload %s decodes to %#v, the ack decoded %#v", got, replayed, *b)
	}
}

// TestBatchCodecFastPath pins which inputs the fast decoder takes: the
// canonical rendering in any field order, and none of the shapes whose
// meaning only encoding/json can reproduce.
func TestBatchCodecFastPath(t *testing.T) {
	canonical, err := json.Marshal(makeBatches(t, collectMeta(), 5, 1, 16)[0])
	if err != nil {
		t.Fatal(err)
	}
	s := codecService()
	for _, tc := range []struct {
		in   string
		fast bool
	}{
		{string(canonical), true},
		{`{"reports":[],"mechanism":"m","batch_id":"b"}`, true},
		{`{"batch_id":"b","mechanism":"m","reports":[{"discrete":{"major":"é"}}]}`, true},
		{`{"batch_id":"b","mechanism":"m","reports":[{"discrete":{"zeta":"x","alpha":"y"}}]}`, true},
		{`{"batch_id":"b","mechanism":"m","reports":null}`, false},
		{`{"batch_id": "b","mechanism":"m","reports":[]}`, false},
		{`{"batch_id":"\u0062","mechanism":"m","reports":[]}`, false},
		{`{"Batch_ID":"b","mechanism":"m","reports":[]}`, false},
		{`{"batch_id":"b","mechanism":"m","reports":[{"numeric":{"x":1e400}}]}`, false},
	} {
		d := batchDecoder{bs: s.codec}
		var b batchCols
		if fast, _ := d.decode(&b, []byte(tc.in)); fast != tc.fast {
			t.Errorf("decode(%s): fast = %v, want %v", tc.in, fast, tc.fast)
		}
	}
}

// TestBatchCodecPrivatizedBatches runs the reference check over batches of
// real randomized reports, multi-key reports and Laplace-noised floats
// included.
func TestBatchCodecPrivatizedBatches(t *testing.T) {
	meta := collectMeta()
	schema, err := SchemaFor(meta)
	if err != nil {
		t.Fatal(err)
	}
	s := &Service{meta: meta, mech: privacy.MechanismFingerprint(meta), schema: schema,
		codec: newBatchSchema(schema, meta), maxBatch: DefaultMaxBatchReports}
	for _, b := range makeBatches(t, meta, 6, 4, 32) {
		b.TraceID = "4bf92f3577b34da6a3ce929d0e0e4736"
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		checkCodec(t, s, data)
		indented, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		checkCodec(t, s, indented)
	}
}

// FuzzBatchCodec differentially tests the ack path against the reference:
// for every body, decoding and validation must give the reference's status,
// code and message, and an accepted batch must encode to the reference's
// WAL payload bytes.
func FuzzBatchCodec(f *testing.F) {
	for _, s := range codecSeeds {
		f.Add([]byte(s))
	}
	s := codecService()
	f.Fuzz(func(t *testing.T, body []byte) { checkCodec(t, s, body) })
}

// benchBatchBody is a 256-report batch in the canonical rendering, the
// size perfbench's ingest workload posts.
func benchBatchBody(b *testing.B) (*batchSchema, []byte) {
	batch := makeBatches(b, collectMeta(), 9, 1, 256)[0]
	body, err := json.Marshal(batch)
	if err != nil {
		b.Fatal(err)
	}
	schema, err := SchemaFor(collectMeta())
	if err != nil {
		b.Fatal(err)
	}
	return newBatchSchema(schema, collectMeta()), body
}

func BenchmarkDecodeBatch(b *testing.B) {
	bs, body := benchBatchBody(b)
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := batchDecoder{bs: bs}
			var cols batchCols
			if fast, err := d.decode(&cols, body); err != nil || !fast {
				b.Fatalf("fast=%v err=%v", fast, err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var batch Batch
			if err := json.Unmarshal(body, &batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkEncodeBatch(b *testing.B) {
	bs, body := benchBatchBody(b)
	d := batchDecoder{bs: bs}
	var cols batchCols
	if _, err := d.decode(&cols, body); err != nil {
		b.Fatal(err)
	}
	var batch Batch
	if err := json.Unmarshal(body, &batch); err != nil {
		b.Fatal(err)
	}
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bs.appendBatch(make([]byte, 0, len(body)), &cols)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

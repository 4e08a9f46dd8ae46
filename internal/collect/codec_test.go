package collect

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
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
}

// checkCodec holds one input to the reference: whatever the fast decoder
// accepts, json.Unmarshal accepts to a deeply equal Batch; whatever
// unmarshalBatch returns matches json.Unmarshal, error text included; and
// every decoded Batch encodes to json.Marshal's bytes.
func checkCodec(t *testing.T, data []byte) {
	t.Helper()
	got, _, gotErr := unmarshalBatch(data)
	var want Batch
	wantErr := json.Unmarshal(data, &want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("decode %q: error %v, encoding/json says %v", data, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode %q:\n got %#v\nwant %#v", data, got, want)
	}
	enc, encErr := marshalBatch(&got, len(data))
	ref, refErr := json.Marshal(want)
	if fmt.Sprint(encErr) != fmt.Sprint(refErr) {
		t.Fatalf("encode %#v: error %v, encoding/json says %v", got, encErr, refErr)
	}
	if !bytes.Equal(enc, ref) {
		t.Fatalf("encode %#v:\n got %s\nwant %s", got, enc, ref)
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
	for _, tc := range []struct {
		in   string
		fast bool
	}{
		{string(canonical), true},
		{`{"reports":[],"mechanism":"m","batch_id":"b"}`, true},
		{`{"batch_id":"b","mechanism":"m","reports":[{"discrete":{"major":"é"}}]}`, true},
		{`{"batch_id":"b","mechanism":"m","reports":null}`, false},
		{`{"batch_id": "b","mechanism":"m","reports":[]}`, false},
		{`{"batch_id":"\u0062","mechanism":"m","reports":[]}`, false},
		{`{"Batch_ID":"b","mechanism":"m","reports":[]}`, false},
		{`{"batch_id":"b","mechanism":"m","reports":[{"numeric":{"x":1e400}}]}`, false},
	} {
		if _, fast, _ := unmarshalBatch([]byte(tc.in)); fast != tc.fast {
			t.Errorf("unmarshalBatch(%s): fast = %v, want %v", tc.in, fast, tc.fast)
		}
	}
}

// TestBatchCodecPrivatizedBatches runs the reference check over batches of
// real randomized reports, multi-key maps and Laplace-noised floats
// included.
func TestBatchCodecPrivatizedBatches(t *testing.T) {
	for _, b := range makeBatches(t, collectMeta(), 6, 4, 32) {
		b.TraceID = "4bf92f3577b34da6a3ce929d0e0e4736"
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		checkCodec(t, data)
	}
}

// FuzzBatchCodec differentially tests the batch codec against
// encoding/json: decoding must agree on result and error for every input,
// and every decoded Batch must encode to json.Marshal's bytes.
func FuzzBatchCodec(f *testing.F) {
	for _, s := range codecSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkCodec)
}

// benchBatchBody is a 256-report batch in the canonical rendering, the
// size perfbench's ingest workload posts.
func benchBatchBody(b *testing.B) (Batch, []byte) {
	batch := makeBatches(b, collectMeta(), 9, 1, 256)[0]
	body, err := json.Marshal(batch)
	if err != nil {
		b.Fatal(err)
	}
	return batch, body
}

func BenchmarkDecodeBatch(b *testing.B) {
	_, body := benchBatchBody(b)
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, fast, err := unmarshalBatch(body); err != nil || !fast {
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
	batch, body := benchBatchBody(b)
	b.Run("fast", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := marshalBatch(&batch, len(body)); err != nil {
				b.Fatal(err)
			}
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

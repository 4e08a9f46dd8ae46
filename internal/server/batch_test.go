package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func postBatch(t *testing.T, url string, queries []string) (*http.Response, batchResponse, []byte) {
	t.Helper()
	body, _ := json.Marshal(batchRequest{Queries: queries})
	resp, err := http.Post(url+"/v1/query/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var br batchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &br); err != nil {
			t.Fatalf("decoding batch response: %v\n%s", err, raw)
		}
	}
	return resp, br, raw
}

// TestBatchMatchesSequential asserts the core batch contract: a workload's
// results are byte-identical to the same queries issued as N sequential
// /v1/query calls against an identical fresh server.
func TestBatchMatchesSequential(t *testing.T) {
	queries := []string{
		"SELECT count(1) FROM R WHERE category = 'a'",
		"SELECT sum(value) FROM R WHERE category IN ('a', 'b')",
		"SELECT avg(value) FROM R WHERE category = 'b'",
		"SELECT count(1) FROM R WHERE category = 'a'", // repeat: exercises the shared cache
		"SELECT count(1) FROM R GROUP BY category",
		"SELECT count(1) FROM R WHERE category = 'a' AND value IS NOT NULL OR 1", // invalid SQL
	}

	// Sequential reference run on its own server instance.
	seqSrv := httptest.NewServer(newTestServer(t, nil).Handler())
	defer seqSrv.Close()
	type seqOutcome struct {
		status int
		body   []byte
	}
	var want []seqOutcome
	for _, q := range queries {
		resp, body := postQuery(t, seqSrv.URL, q)
		resp.Body.Close()
		want = append(want, seqOutcome{status: resp.StatusCode, body: body})
	}

	// Batch run on a second, identically configured server.
	batchSrv := httptest.NewServer(newTestServer(t, nil).Handler())
	defer batchSrv.Close()
	resp, br, _ := postBatch(t, batchSrv.URL, queries)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	if len(br.Results) != len(queries) {
		t.Fatalf("batch returned %d results for %d queries", len(br.Results), len(queries))
	}

	for i, item := range br.Results {
		if item.Status != want[i].status {
			t.Errorf("query %d: batch status %d, sequential status %d", i, item.Status, want[i].status)
		}
		// The sequential body is the full HTTP payload: a queryResponse on
		// success, an errorBody on failure. Re-marshal the batch item's inner
		// object compactly and compare byte-for-byte against the compacted
		// sequential body.
		var got, ref bytes.Buffer
		if item.Result != nil {
			if item.Error != nil {
				t.Errorf("query %d: both result and error set", i)
			}
			enc, err := json.Marshal(item.Result)
			if err != nil {
				t.Fatal(err)
			}
			got.Write(enc)
		} else if item.Error != nil {
			enc, err := json.Marshal(errorBody{Error: *item.Error})
			if err != nil {
				t.Fatal(err)
			}
			got.Write(enc)
		} else {
			t.Fatalf("query %d: neither result nor error set", i)
		}
		if err := json.Compact(&ref, want[i].body); err != nil {
			t.Fatalf("query %d: compacting sequential body: %v", i, err)
		}
		if !bytes.Equal(got.Bytes(), ref.Bytes()) {
			t.Errorf("query %d: batch result differs from sequential:\n  batch      %s\n  sequential %s",
				i, got.Bytes(), ref.Bytes())
		}
	}
}

// TestBatchMixedValidity asserts that invalid queries yield per-item typed
// errors without failing the batch or the valid items around them.
func TestBatchMixedValidity(t *testing.T) {
	srv := httptest.NewServer(newTestServer(t, nil).Handler())
	defer srv.Close()
	queries := []string{
		"SELECT count(1) FROM R WHERE category = 'a'", // valid
		"SELECT bogus(1) FROM R",                      // parse error
		"",                                            // empty
		"SELECT sum(nope) FROM R WHERE category = 'a'", // unknown aggregate column
		"SELECT count(1) FROM R",                       // valid (total)
	}
	resp, br, _ := postBatch(t, srv.URL, queries)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed batch must return 200 overall, got %d", resp.StatusCode)
	}
	if len(br.Results) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(br.Results), len(queries))
	}
	wantOK := []bool{true, false, false, false, true}
	for i, item := range br.Results {
		if ok := item.Result != nil; ok != wantOK[i] {
			t.Errorf("query %d: success = %v, want %v (error: %+v)", i, ok, wantOK[i], item.Error)
		}
		if !wantOK[i] {
			if item.Error == nil || item.Error.Code == "" {
				t.Errorf("query %d: missing typed error", i)
			}
			if item.Status < 400 || item.Status >= 500 {
				t.Errorf("query %d: analyst error must carry a 4xx status, got %d", i, item.Status)
			}
		} else if item.Status != http.StatusOK {
			t.Errorf("query %d: status = %d", i, item.Status)
		}
	}
}

func TestBatchRejections(t *testing.T) {
	srv := httptest.NewServer(newTestServer(t, nil).Handler())
	defer srv.Close()

	// Wrong method.
	resp, err := http.Get(srv.URL + "/v1/query/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status = %d", resp.StatusCode)
	}

	// Empty workload.
	r2, _, _ := postBatch(t, srv.URL, nil)
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("empty workload: status = %d", r2.StatusCode)
	}

	// Oversized workload.
	big := make([]string, maxBatchQueries+1)
	for i := range big {
		big[i] = "SELECT count(1) FROM R"
	}
	r3, _, _ := postBatch(t, srv.URL, big)
	if r3.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized workload: status = %d", r3.StatusCode)
	}

	// Malformed JSON.
	r4, err := http.Post(srv.URL+"/v1/query/batch", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if r4.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status = %d", r4.StatusCode)
	}
}

// TestBatchPopulatesSharedCache asserts the amortization the endpoint
// exists for: after one batch, the estimator's cache holds the channels of
// the workload's predicates and the per-code table its sums read, and no
// joint table (only conjunctions build those).
func TestBatchPopulatesSharedCache(t *testing.T) {
	s := newTestServer(t, nil)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, _, _ := postBatch(t, srv.URL, []string{
		"SELECT count(1) FROM R WHERE category = 'a'",
		"SELECT sum(value) FROM R WHERE category = 'b'",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	chans, tables := s.est.Cache.Len()
	perCode := int64(0)
	for _, k := range s.est.Cache.Stats() {
		if k.Kind == "per-code" {
			perCode = k.Entries
		}
	}
	if chans != 2 || tables != 0 || perCode != 1 {
		t.Fatalf("cache after batch: channels=%d joint=%d per-code=%d, want 2, 0, 1", chans, tables, perCode)
	}
}

package httpsvc

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"privateclean/internal/faults"
)

// WriteJSON must never send a truncated body behind a 200: an encoding
// failure is converted to a 500 error envelope before any header is written.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("error body %q is not the JSON envelope: %v", rec.Body, err)
	}
	if eb.Error.Code != "internal" {
		t.Fatalf("code = %q, want internal", eb.Error.Code)
	}
}

// TestHTTPStatusMapping: transient durability failures (partial writes,
// backpressure) are retryable 503s, but corruption is permanent — a client
// retrying a 503 against a corrupt checkpoint would just burn its retry
// budget, so ErrCorruptCheckpoint maps to a non-retryable 500. An error with
// no taxonomy kind takes each service's fallback code.
func TestHTTPStatusMapping(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{faults.Errorf(faults.ErrPartialWrite, "disk full"), http.StatusServiceUnavailable, "partial_write"},
		{faults.Errorf(faults.ErrCorruptCheckpoint, "sealed segment bit rot"), http.StatusInternalServerError, "corrupt_checkpoint"},
		{faults.Errorf(faults.ErrInternal, "bug"), http.StatusInternalServerError, "internal"},
		{faults.Errorf(faults.ErrBadMeta, "mismatch"), http.StatusUnprocessableEntity, "bad_meta"},
		{faults.Errorf(faults.ErrBadQuery, "no such column"), http.StatusBadRequest, "bad_query"},
		{faults.Errorf(faults.ErrUsage, "missing field"), http.StatusBadRequest, "usage"},
	}
	for _, fallback := range []string{"bad_query", "bad_batch"} {
		for _, c := range cases {
			if status, code := Status(c.err, fallback); status != c.status || code != c.code {
				t.Errorf("Status(%v, %q) = %d %q, want %d %q", c.err, fallback, status, code, c.status, c.code)
			}
		}
		if status, code := Status(json.Unmarshal([]byte("{"), new(any)), fallback); status != http.StatusBadRequest || code != fallback {
			t.Errorf("unclassified error with fallback %q = %d %q, want 400 %q", fallback, status, code, fallback)
		}
	}
}

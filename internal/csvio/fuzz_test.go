package csvio

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"privateclean/internal/faults"
	"privateclean/internal/privacy"
	"privateclean/internal/provenance"
	"privateclean/internal/relation"
)

// FuzzRead checks that arbitrary CSV input never panics the loader, and
// that anything it accepts survives a write/read round trip.
func FuzzRead(f *testing.F) {
	seeds := []string{
		"a,b\n1,x\n2,y\n",
		"major,score\nME,4.5\n,3\n",
		"only_header\n",
		"a\n\"quoted, cell\"\n",
		"a,a\n1,2\n",
		"",
		"a,b\n1\n",
		"a\n1e308\n",
		"a\nNaN\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		r, _, err := ReadWithReport(strings.NewReader(src), Options{})
		if err != nil {
			return // rejection is fine
		}
		var buf bytes.Buffer
		if err := Write(&buf, r); err != nil {
			t.Fatalf("accepted %q but failed to write it back: %v", src, err)
		}
		// Re-read with the original schema's kinds forced, so inference
		// drift (e.g. a discrete column whose values happen to look
		// numeric) cannot fail the round trip.
		opts := Options{ForceKinds: map[string]relation.Kind{}}
		for _, c := range r.Schema().Columns() {
			opts.ForceKinds[c.Name] = c.Kind
		}
		back, _, err := ReadWithReport(&buf, opts)
		if err != nil {
			t.Fatalf("wrote %q from %q but cannot re-read: %v", buf.String(), src, err)
		}
		if back.NumRows() != r.NumRows() {
			t.Fatalf("row count changed: %d -> %d", r.NumRows(), back.NumRows())
		}
	})
}

// FuzzReadPolicies runs the loader under every row-error policy, checking
// that no input panics and that the policies agree: whatever the skip policy
// loads, the quarantine policy loads identically, and a clean report under
// skip implies the fail policy accepts the input too.
func FuzzReadPolicies(f *testing.F) {
	seeds := []string{
		"a,b\n1,x\n2\n3,y\n",
		"\xEF\xBB\xBFa\n1\n",
		"a\n+Inf\n",
		"a,b\n\"broken\n",
		"a,a\n1,2\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		skipRel, skipRep, skipErr := ReadWithReport(strings.NewReader(src), Options{OnRowError: RowErrorSkip})
		var sidecar bytes.Buffer
		qRel, qRep, qErr := ReadWithReport(strings.NewReader(src), Options{
			OnRowError: RowErrorQuarantine, Quarantine: &sidecar,
		})
		if (skipErr == nil) != (qErr == nil) {
			t.Fatalf("skip and quarantine disagree on acceptance: %v vs %v", skipErr, qErr)
		}
		if skipErr != nil {
			return
		}
		if skipRel.NumRows() != qRel.NumRows() || skipRep.Skipped != qRep.Quarantined {
			t.Fatalf("policies diverge: skip %d rows/%d dropped, quarantine %d rows/%d dropped",
				skipRel.NumRows(), skipRep.Skipped, qRel.NumRows(), qRep.Quarantined)
		}
		if _, _, failErr := ReadWithReport(strings.NewReader(src), Options{}); skipRep.Clean() != (failErr == nil) {
			t.Fatalf("clean report %v but fail policy says %v", skipRep.Clean(), failErr)
		}
	})
}

// FuzzLoadModes is the differential check between the in-memory loader and
// the streaming one (ProfileFile, then a ChunkIterator drained in windows of
// 1–64 rows) over one file, under the skip and fail policies: on success
// they must give the same schema, equal relations, equal Report counters
// and the same malformed rows; on failure the same typed error.
func FuzzLoadModes(f *testing.F) {
	for i, tc := range messyInputs {
		forced, numeric := "", false
		for name, kind := range tc.opts.ForceKinds {
			forced, numeric = name, kind == relation.Numeric
		}
		f.Add(tc.text, uint8(i), forced, numeric)
	}
	f.Add("a,b\n1,2\n1,2,3\n", uint8(1), "", false)
	f.Add("a,b\n1,2\nz,3\n", uint8(2), "a", true)
	f.Add("a,b\n\"open,2\n1,2\n", uint8(3), "", false)
	f.Fuzz(func(t *testing.T, src string, window uint8, forced string, numeric bool) {
		path := filepath.Join(t.TempDir(), "in.csv")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		w := 1 + int(window%64)
		var opts Options
		if forced != "" {
			kind := relation.Discrete
			if numeric {
				kind = relation.Numeric
			}
			opts.ForceKinds = map[string]relation.Kind{forced: kind}
		}
		for _, policy := range []RowErrorPolicy{RowErrorSkip, RowErrorFail} {
			opts.OnRowError = policy
			rel, rep, memErr := ReadFileWithReport(path, opts)
			prof, streamErr := ProfileFile(path, opts)
			var it *ChunkIterator
			if streamErr == nil {
				it, streamErr = NewChunkIterator(path, prof, w)
			}
			if (memErr == nil) != (streamErr == nil) {
				t.Fatalf("%v: in-memory error %v, streaming error %v", policy, memErr, streamErr)
			}
			if memErr != nil {
				if faults.Kind(memErr) != faults.Kind(streamErr) || memErr.Error() != streamErr.Error() {
					t.Fatalf("%v: errors differ\nmem:    %v\nstream: %v", policy, memErr, streamErr)
				}
				continue
			}
			got := drain(t, it, w)
			it.Close()
			if gs, ws := got.Schema().String(), rel.Schema().String(); gs != ws {
				t.Fatalf("%v: schema %q, want %q", policy, gs, ws)
			}
			if !got.Equal(rel) {
				t.Fatalf("%v: streamed relation differs from in-memory load:\ngot  %v\nwant %v", policy, got, rel)
			}
			srep := prof.Report
			if srep.Rows != rep.Rows || srep.Skipped != rep.Skipped || srep.Quarantined != rep.Quarantined {
				t.Fatalf("%v: report %+v, want %+v", policy, srep, rep)
			}
			byRow := func(a, b RowError) int { return a.Row - b.Row }
			gotBad, wantBad := slices.Clone(srep.BadRows), slices.Clone(rep.BadRows)
			slices.SortFunc(gotBad, byRow)
			slices.SortFunc(wantBad, byRow)
			if !reflect.DeepEqual(gotBad, wantBad) {
				t.Fatalf("%v: bad rows %v, want %v", policy, srep.BadRows, rep.BadRows)
			}
		}
	})
}

// FuzzMetaJSON checks that arbitrary bytes never panic the view-metadata
// decoder, and that anything accepted and validated survives a marshal
// round trip. The metadata file crosses the provider/analyst trust boundary,
// so the decoder is fuzzed like any other untrusted input.
func FuzzMetaJSON(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"Discrete":{"major":{"Name":"major","P":0.2,"Domain":["a","b"]}},"Numeric":{},"Rows":10}`,
		`{"Discrete":{"major":{"Name":"major","P":1.5,"Domain":[]}},"Rows":-3}`,
		`{"Numeric":{"score":{"Name":"score","B":-1,"Delta":4}}}`,
		`{"Discrete":null,"Numeric":null,"Rows":0}`,
		`[1,2,3]`,
		`null`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		meta := &privacy.ViewMeta{}
		if err := json.Unmarshal(data, meta); err != nil {
			return // rejection is fine
		}
		if err := meta.Validate(); err != nil {
			return // decoded but out of range: typed rejection is fine
		}
		out, err := json.Marshal(meta)
		if err != nil {
			t.Fatalf("validated metadata failed to marshal: %v", err)
		}
		back := &privacy.ViewMeta{}
		if err := json.Unmarshal(out, back); err != nil {
			t.Fatalf("marshaled metadata failed to re-read: %v", err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped metadata no longer validates: %v", err)
		}
	})
}

// FuzzProvenanceJSON checks that arbitrary bytes never panic the provenance
// decoder and that accepted stores survive a marshal round trip.
func FuzzProvenanceJSON(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"graphs":{}}`,
		`{"graphs":{"major":{"attr":"major","n":2,"forked":false,"parents":{"a":{"a":1}}}}}`,
		`{"graphs":{"major":null}}`,
		`{"graphs":{"major":{"attr":"major","n":2,"parents":{"a":{"a":0.5,"b":0.6}}}}}`,
		`null`,
		`42`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		store := provenance.NewStore()
		if err := json.Unmarshal(data, store); err != nil {
			return // rejection is fine
		}
		out, err := json.Marshal(store)
		if err != nil {
			t.Fatalf("accepted provenance failed to marshal: %v", err)
		}
		back := provenance.NewStore()
		if err := json.Unmarshal(out, back); err != nil {
			t.Fatalf("marshaled provenance failed to re-read: %v", err)
		}
	})
}

package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"privateclean/internal/atomicio"
	"privateclean/internal/faults"
)

// The ε-budget ledger is the session file recording, per privatize run, the
// per-attribute ε_i, the Theorem 1 composition ε = Σ ε_i, and enough
// mechanism fingerprints to recognize repeated identical releases. Repeated
// runs over the same input accumulate: CumulativeFor sums the composed ε of
// every distinct release of one input, which is exactly the quantity an
// operator must watch — local DP composes across releases of the same
// records.
//
// A release is identified by (input, params, seed, chunk size). Re-running
// the byte-identical release (same tuple — the chunked pipeline is
// deterministic in it) is recorded but marked duplicate and adds no spend:
// publishing the same bytes twice reveals nothing new. A new seed or new
// parameters is a fresh release and composes.

// LedgerVersion guards the ledger schema.
const LedgerVersion = 1

// LedgerFileSuffix is the conventional ledger sidecar name: spend against
// "x.csv" is tracked in "x.csv.ledger.json" unless the caller chooses
// otherwise.
const LedgerFileSuffix = ".ledger.json"

// LedgerEntry records one privatize run.
type LedgerEntry struct {
	// Time is the completion time, RFC 3339 (supplied by the caller so
	// deterministic tests can pin it).
	Time string `json:"time,omitempty"`
	// InputSHA identifies the input dataset; ParamsSHA, Seed, and ChunkSize
	// complete the release fingerprint.
	InputSHA  string `json:"input_sha256"`
	ParamsSHA string `json:"params_sha256"`
	Seed      int64  `json:"seed"`
	ChunkSize int    `json:"chunk_size,omitempty"`
	// Out is the released view path (operator configuration, not data).
	Out string `json:"out,omitempty"`
	// Rows is the number of released rows.
	Rows int `json:"rows"`
	// PerAttribute maps attribute name -> ε_i. Attributes with an unbounded
	// ε (p = 0 or b = 0) are listed in Unbounded instead, since JSON cannot
	// carry +Inf.
	PerAttribute map[string]float64 `json:"epsilon_per_attribute,omitempty"`
	// Composed is the Theorem 1 composition Σ ε_i over bounded attributes.
	Composed float64 `json:"epsilon_composed"`
	// Unbounded names attributes released with no privacy (ε_i = +Inf),
	// which make the true composed ε unbounded too.
	Unbounded []string `json:"epsilon_unbounded_attrs,omitempty"`
	// Duplicate marks a byte-identical re-release (same input, params,
	// seed, and chunking as an earlier entry); it adds no spend.
	Duplicate bool `json:"duplicate_release,omitempty"`
}

// releaseKey is the identity under which duplicate releases are detected.
func (e *LedgerEntry) releaseKey() string {
	return fmt.Sprintf("%s|%s|%d|%d", e.InputSHA, e.ParamsSHA, e.Seed, e.ChunkSize)
}

// Ledger is the on-disk session file: an append-only entry list.
type Ledger struct {
	Version int           `json:"version"`
	Entries []LedgerEntry `json:"entries"`
}

// LoadLedger reads the ledger at path; a missing file yields an empty
// ledger, anything unreadable or from another schema version is a metadata
// fault.
func LoadLedger(path string) (*Ledger, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &Ledger{Version: LedgerVersion}, nil
	}
	if err != nil {
		return nil, faults.Wrap(faults.ErrBadMeta, fmt.Errorf("telemetry: ledger: %w", err))
	}
	l := &Ledger{}
	if err := json.Unmarshal(data, l); err != nil {
		return nil, faults.Wrap(faults.ErrBadMeta, fmt.Errorf("telemetry: decoding ledger %s: %w", path, err))
	}
	if l.Version != LedgerVersion {
		return nil, faults.Errorf(faults.ErrBadMeta, "telemetry: ledger %s has version %d, want %d", path, l.Version, LedgerVersion)
	}
	return l, nil
}

// Append records a run, sanitizing non-finite ε values (moved to Unbounded)
// and marking duplicates of already-recorded releases. The stored entry is
// returned.
func (l *Ledger) Append(e LedgerEntry) LedgerEntry {
	perAttr := make(map[string]float64, len(e.PerAttribute))
	composed := 0.0
	unbounded := append([]string(nil), e.Unbounded...)
	for name, eps := range e.PerAttribute {
		if math.IsInf(eps, 0) || math.IsNaN(eps) {
			unbounded = append(unbounded, name)
			continue
		}
		perAttr[name] = eps
		composed += eps
	}
	e.PerAttribute = perAttr
	e.Composed = composed
	e.Unbounded = unbounded
	e.Duplicate = false
	key := e.releaseKey()
	for i := range l.Entries {
		if l.Entries[i].releaseKey() == key {
			e.Duplicate = true
			break
		}
	}
	l.Entries = append(l.Entries, e)
	return e
}

// CumulativeFor sums the composed ε of every non-duplicate release of the
// given input — the total budget spent on that dataset across the session.
func (l *Ledger) CumulativeFor(inputSHA string) float64 {
	total := 0.0
	for i := range l.Entries {
		if l.Entries[i].InputSHA == inputSHA && !l.Entries[i].Duplicate {
			total += l.Entries[i].Composed
		}
	}
	return total
}

// WriteTo atomically persists the ledger.
func (l *Ledger) WriteTo(path string) error {
	return atomicio.WriteJSON(path, l)
}

package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"

	"privateclean/internal/faults"
)

// Redactor is the privacy boundary for every telemetry sink. A string may
// appear verbatim in a log record, metric label, or span attribute only if
// it is in the safe vocabulary: the built-in baseline (stage names, policy
// names, fault codes — things the code itself chose) plus tokens explicitly
// allowed at runtime (file paths and attribute names, which are operator
// configuration and schema metadata, not data). Everything else — in
// particular cell values and quarantined row contents — is replaced by a
// stable [redacted:xxxxxxxx] hash tag, which correlates repeated occurrences
// without revealing the value.
type Redactor struct {
	mu   sync.RWMutex
	safe map[string]struct{}
}

// NewRedactor builds a redactor whose safe vocabulary is the baseline plus
// the given tokens.
func NewRedactor(tokens ...string) *Redactor {
	r := &Redactor{safe: make(map[string]struct{}, len(tokens))}
	r.Allow(tokens...)
	return r
}

// Allow adds tokens to the safe vocabulary. Callers own the judgment that a
// token is mechanism configuration rather than data: the CLI allows the file
// paths it was invoked with, and the CSV loader allows header names once the
// schema is known.
func (r *Redactor) Allow(tokens ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range tokens {
		r.safe[t] = struct{}{}
	}
}

// Safe reports whether s may appear verbatim in telemetry output.
func (r *Redactor) Safe(s string) bool {
	if _, ok := baseline[s]; ok {
		return true
	}
	if r == nil {
		return false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.safe[s]
	return ok
}

// Clean returns s unchanged when it is safe and its redaction tag otherwise.
func (r *Redactor) Clean(s string) string {
	if r.Safe(s) {
		return s
	}
	return "[redacted:" + hash8(s) + "]"
}

// hash8 is the stable 8-hex-digit correlation tag of a redacted string.
func hash8(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:4])
}

// FaultCode maps an error to the short taxonomy code telemetry carries in
// place of the error text (which may embed cell values from parse failures).
func FaultCode(err error) string {
	if err == nil {
		return "ok"
	}
	switch faults.Kind(err) {
	case faults.ErrUsage:
		return "usage"
	case faults.ErrBadInput:
		return "bad_input"
	case faults.ErrBadMeta:
		return "bad_meta"
	case faults.ErrBadParams:
		return "bad_params"
	case faults.ErrBadQuery:
		return "bad_query"
	case faults.ErrCorruptCheckpoint:
		return "corrupt_checkpoint"
	case faults.ErrPartialWrite:
		return "partial_write"
	case faults.ErrInternal:
		return "internal"
	default:
		return "unclassified"
	}
}

// baseline is the vocabulary the code itself emits: pipeline stage and span
// names, CLI subcommands and flag values, row-error policies and reason
// codes, fault taxonomy codes, aggregate kinds, and cleaning-op kinds. None
// of these can carry data — they are all string literals in this repository.
var baseline = buildBaseline(
	// span / stage names
	"privatize", "csv_load", "chunk", "checkpoint_read", "checkpoint_write",
	"resume_truncate", "csv_profile", "finalize", "ledger_append",
	"clean", "clean_summary", "clean_window", "provenance_save",
	"query_parse", "query_estimate", "explain", "describe", "tune", "minsize", "epsilon",
	// distributed-collection span names and pipeline stages
	"client_randomize", "report_batch", "collect_report", "wal_append",
	"fold", "compact", "serve_query",
	// row-error policies and malformed-row reason codes
	"fail", "skip", "quarantine", "arity", "syntax", "bad_numeric",
	// fault taxonomy codes
	"ok", "usage", "bad_input", "bad_meta", "bad_params", "bad_query",
	"corrupt_checkpoint", "partial_write", "internal", "unclassified",
	// log levels and formats
	"debug", "info", "warn", "error", "text", "json",
	// aggregate kinds
	"count", "sum", "avg", "median", "var", "std",
	// cleaning-op kinds (the part of Op.Name before the parenthesis)
	"transform", "merge", "extract", "find-replace", "dictionary-merge",
	"nullify-invalid", "fd-repair", "fd-impute", "md-repair",
	"regex-replace", "canonicalize", "trim", "transform-rows",
	// misc states
	"true", "false", "fresh", "resumed", "duplicate",
)

func buildBaseline(tokens ...string) map[string]struct{} {
	m := make(map[string]struct{}, len(tokens)+1)
	m[""] = struct{}{}
	for _, t := range tokens {
		m[t] = struct{}{}
	}
	return m
}

// OpKind extracts the vocabulary-safe kind of a cleaning-op name like
// "transform(major:lower)" — the part before the first parenthesis.
func OpKind(name string) string {
	if i := strings.IndexByte(name, '('); i >= 0 {
		return name[:i]
	}
	return name
}

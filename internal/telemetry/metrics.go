package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"privateclean/internal/atomicio"
	"privateclean/internal/faults"
)

// Registry is a zero-dependency metrics registry: atomic counters, gauges,
// and fixed-bucket histograms, exposable as Prometheus text format or
// expvar-style JSON and snapshottable to a file via internal/atomicio.
//
// Label values pass through the registry's redaction boundary when an
// instrument is created, so a label can never carry a cell value into an
// exposition — it is replaced by its redaction tag first.
type Registry struct {
	red  *Redactor
	mu   sync.Mutex
	fams map[string]*family
	memo sync.Map // see Memo
}

// NewRegistry builds a registry vetting label values against red (nil means
// only the baseline vocabulary is safe).
func NewRegistry(red *Redactor) *Registry {
	return &Registry{red: red, fams: make(map[string]*family)}
}

// Label is one metric label pair.
type Label struct{ Key, Value string }

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// family groups every labeled instrument sharing one metric name.
type family struct {
	name, help, typ string
	insts           map[string]instrument // keyed by rendered label string
}

type instrument interface {
	// expo appends the Prometheus sample lines for this instrument.
	expo(w io.Writer, name, labels string)
	// jsonValue returns the expvar-style JSON value.
	jsonValue() any
}

var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// lookup returns (creating if needed) the instrument for name+labels,
// panicking on misuse (invalid name, type clash) — metric registration is
// code, not input, so a bug should fail loudly in tests. The name is
// checked when its family is created, so a lookup of a registered family
// skips the regexp.
func (reg *Registry) lookup(name, help, typ string, labels []Label, make func() instrument) instrument {
	ls := reg.renderLabels(labels)
	reg.mu.Lock()
	defer reg.mu.Unlock()
	fam, ok := reg.fams[name]
	if !ok {
		if !metricNameRE.MatchString(name) {
			panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
		}
		fam = &family{name: name, help: help, typ: typ, insts: map[string]instrument{}}
		reg.fams[name] = fam
	}
	if fam.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, fam.typ, typ))
	}
	inst, ok := fam.insts[ls]
	if !ok {
		inst = make()
		fam.insts[ls] = inst
	}
	return inst
}

// renderLabels renders labels in sorted-key order with redacted values.
func (reg *Registry) renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Key, reg.red.Clean(l.Value))
	}
	return sb.String()
}

// Memo returns what build made on the first call with key, so a hot path
// resolves an instrument on its first event only. Key with a small value
// of an unexported type: boxing it allocates nothing.
func (reg *Registry) Memo(key any, build func() any) any {
	if v, ok := reg.memo.Load(key); ok {
		return v
	}
	v, _ := reg.memo.LoadOrStore(key, build())
	return v
}

// Counter returns the monotonically increasing counter for name+labels.
func (reg *Registry) Counter(name, help string, labels ...Label) *Counter {
	return reg.lookup(name, help, "counter", labels, func() instrument { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge for name+labels.
func (reg *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return reg.lookup(name, help, "gauge", labels, func() instrument { return &Gauge{} }).(*Gauge)
}

// Histogram returns the fixed-bucket histogram for name+labels. The buckets
// are upper bounds in increasing order; an implicit +Inf bucket is added.
// Bucket layout is fixed at first registration.
func (reg *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	return reg.lookup(name, help, "histogram", labels, func() instrument { return newHistogram(buckets) }).(*Histogram)
}

// atomicFloat is a float64 updated with CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value.
type Counter struct{ v atomicFloat }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds v; negative or non-finite increments are ignored (a counter must
// not go backwards, and an Inf/NaN increment would poison the series).
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	c.v.Add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

func (c *Counter) expo(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(c.Value()))
}
func (c *Counter) jsonValue() any { return c.Value() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set stores v.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add adds v.
func (g *Gauge) Add(v float64) { g.v.Add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

func (g *Gauge) expo(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(g.Value()))
}
func (g *Gauge) jsonValue() any { return g.Value() }

// Histogram counts observations into fixed buckets.
type Histogram struct {
	uppers []float64
	counts []atomic.Uint64 // len(uppers)+1; last bucket is +Inf
	sum    atomicFloat
	n      atomic.Uint64
}

func newHistogram(uppers []float64) *Histogram {
	us := append([]float64(nil), uppers...)
	sort.Float64s(us)
	return &Histogram{uppers: us, counts: make([]atomic.Uint64, len(us)+1)}
}

// Observe records one observation. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	idx := sort.SearchFloat64s(h.uppers, v)
	h.counts[idx].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

func (h *Histogram) expo(w io.Writer, name, labels string) {
	cum := uint64(0)
	for i, upper := range h.uppers {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, formatFloat(upper)), cum)
	}
	cum += h.counts[len(h.uppers)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
}

func (h *Histogram) jsonValue() any {
	buckets := make(map[string]uint64, len(h.uppers)+1)
	for i, upper := range h.uppers {
		buckets[formatFloat(upper)] = h.counts[i].Load()
	}
	buckets["+Inf"] = h.counts[len(h.uppers)].Load()
	return map[string]any{"count": h.Count(), "sum": h.Sum(), "buckets": buckets}
}

// bucketLabels splices le="upper" into a rendered label string.
func bucketLabels(labels, le string) string {
	if labels == "{}" || labels == "" {
		return fmt.Sprintf(`{le=%q}`, le)
	}
	return labels[:len(labels)-1] + fmt.Sprintf(`,le=%q}`, le)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// DurationBuckets are the default histogram bounds, in seconds, for stage
// and chunk latencies (100µs .. 30s).
var DurationBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30}

// FreshnessBuckets are histogram bounds, in seconds, for end-to-end
// pipeline freshness (batch ack to checkpoint commit). Compaction cadences
// run from milliseconds (tests) to many minutes (production), so the range
// is wider and coarser than DurationBuckets.
var FreshnessBuckets = []float64{0.001, 0.01, 0.1, 0.5, 1, 5, 15, 60, 300, 900, 3600}

// RowBuckets are the default histogram bounds for per-chunk and per-load row
// counts.
var RowBuckets = []float64{1, 8, 64, 256, 512, 1024, 4096, 16384, 65536, 262144, 1048576}

// snapshot returns the families and their instruments in deterministic
// (sorted) order for exposition.
func (reg *Registry) snapshot() []*family {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	fams := make([]*family, 0, len(reg.fams))
	for _, f := range reg.fams {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one HELP/TYPE header per family, then one sample
// line per instrument, in deterministic order.
func (reg *Registry) WritePrometheus(w io.Writer) error {
	for _, fam := range reg.snapshot() {
		if fam.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam.name, fam.help); err != nil {
				return faults.Wrap(faults.ErrPartialWrite, err)
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam.name, fam.typ); err != nil {
			return faults.Wrap(faults.ErrPartialWrite, err)
		}
		keys := make([]string, 0, len(fam.insts))
		for k := range fam.insts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			labels := ""
			if k != "" {
				labels = "{" + k + "}"
			}
			fam.insts[k].expo(w, fam.name, labels)
		}
	}
	return nil
}

// WriteExpvar renders the registry as an expvar-style JSON object keyed by
// "name" or "name{labels}".
func (reg *Registry) WriteExpvar(w io.Writer) error {
	out := map[string]any{}
	for _, fam := range reg.snapshot() {
		for k, inst := range fam.insts {
			key := fam.name
			if k != "" {
				key += "{" + k + "}"
			}
			out[key] = inst.jsonValue()
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return faults.Wrap(faults.ErrInternal, err)
	}
	_, err = w.Write(append(data, '\n'))
	return faults.Wrap(faults.ErrPartialWrite, err)
}

// SnapshotTo writes the registry atomically to path: expvar JSON when the
// path ends in .json, Prometheus text format otherwise (.prom by
// convention).
func (reg *Registry) SnapshotTo(path string) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		if strings.HasSuffix(path, ".json") {
			return reg.WriteExpvar(w)
		}
		return reg.WritePrometheus(w)
	})
}

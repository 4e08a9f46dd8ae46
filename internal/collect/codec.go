package collect

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"unicode/utf8"

	"privateclean/internal/privacy"
	"privateclean/internal/relation"
)

// The batch codec decodes a batch once, straight into columns of the
// collection schema, and writes the WAL payload — the compact rendering
// json.Marshal(Batch) emits — back out of those columns without reflection.
// Both halves of the package read the one form: the ack validates and
// encodes it, and the fold adopts its columns as the window it accumulates.
// encoding/json stays the reference: the fast decoder accepts only input
// whose meaning it can reproduce exactly and hands everything else to
// json.Unmarshal into a Batch, converted by fromBatch, and the encoder
// renders any string json.Marshal would escape through json.Marshal itself.
// FuzzBatchCodec holds the ack path to that reference byte for byte, and
// FuzzFoldMatchesReference holds the fold to the row-by-row fold it
// replaced.

// batchSchema is the collection schema as the codec sees it: each kind's
// attribute names in sorted order (json.Marshal's map-key order), their
// column index by name, and their rendered object keys. domains holds each
// discrete column's released domain, nil when unknown, and positions each
// value's index in it, nil unless the domain is sorted.
type batchSchema struct {
	discrete, numeric []string
	discIdx, numIdx   map[string]int
	discKey, numKey   [][]byte // `"name":` as json.Marshal renders the key
	domains           [][]string
	positions         []map[string]uint32
}

// newBatchSchema lays out schema for the codec. With meta, the decoder
// resolves a discrete value inside its attribute's domain to the domain's
// own string, so such values cost no allocation, and the fold encodes it
// as its position there; meta may be nil.
func newBatchSchema(schema relation.Schema, meta *privacy.ViewMeta) *batchSchema {
	bs := &batchSchema{}
	bs.discrete, bs.discIdx, bs.discKey = codecColumns(schema.DiscreteNames())
	bs.numeric, bs.numIdx, bs.numKey = codecColumns(schema.NumericNames())
	bs.domains = make([][]string, len(bs.discrete))
	bs.positions = make([]map[string]uint32, len(bs.discrete))
	for j, name := range bs.discrete {
		if meta == nil || !slices.IsSorted(meta.Discrete[name].Domain) {
			continue
		}
		bs.domains[j] = meta.Discrete[name].Domain
		bs.positions[j] = make(map[string]uint32, len(bs.domains[j]))
		for k, v := range bs.domains[j] {
			bs.positions[j][v] = uint32(k)
		}
	}
	return bs
}

func codecColumns(names []string) (sorted []string, idx map[string]int, keys [][]byte) {
	sorted = append([]string(nil), names...)
	sort.Strings(sorted)
	idx = make(map[string]int, len(sorted))
	keys = make([][]byte, len(sorted))
	for j, name := range sorted {
		idx[name] = j
		keys[j] = append(appendString(nil, name), ':')
	}
	return sorted, idx, keys
}

// batchCols is one decoded batch laid out by the collection schema. Column
// j of disc holds discrete attribute j of every report, relation.Null where
// the report lacks it, and has[j] marks the reports that carry it, so an
// absent attribute and a literal "NULL" stay distinct. Column j of num holds
// numeric attribute j, NaN where absent (JSON cannot carry NaN, nor any
// other non-finite number). Attributes outside the schema are not stored:
// unknown names the first report carrying one.
type batchCols struct {
	ID, Mechanism, TraceID string
	// n is the number of reports; columns hold exactly n entries.
	n       int
	disc    [][]string
	has     [][]bool
	num     [][]float64
	unknown unknownAttr
}

// unknownAttr is the first report naming an attribute outside the schema,
// with its lexicographically smallest such name, discrete before numeric.
// report is -1 when every attribute is known.
type unknownAttr struct {
	report int
	kind   string
	name   string
}

// reset empties b for a batch of about hint reports under bs, keeping the
// column buffers when b last held a batch of bs's width.
func (b *batchCols) reset(bs *batchSchema, hint int) {
	*b = batchCols{disc: b.disc, has: b.has, num: b.num, unknown: unknownAttr{report: -1}}
	if b.disc == nil || len(b.disc) != len(bs.discrete) || len(b.num) != len(bs.numeric) {
		b.disc = make([][]string, len(bs.discrete))
		b.has = make([][]bool, len(bs.discrete))
		b.num = make([][]float64, len(bs.numeric))
	}
	for j := range b.disc {
		b.disc[j] = growTo(b.disc[j], hint)
		b.has[j] = growTo(b.has[j], hint)
	}
	for j := range b.num {
		b.num[j] = growTo(b.num[j], hint)
	}
}

// growTo returns col emptied, with room for at least hint entries.
func growTo[T any](col []T, hint int) []T {
	if cap(col) < hint {
		return make([]T, 0, hint)
	}
	return col[:0]
}

// addReport appends one report with every attribute absent and returns its
// index.
func (b *batchCols) addReport() int {
	for j := range b.disc {
		b.disc[j] = append(b.disc[j], relation.Null)
		b.has[j] = append(b.has[j], false)
	}
	for j := range b.num {
		b.num[j] = append(b.num[j], math.NaN())
	}
	b.n++
	return b.n - 1
}

// smallest tracks the lexicographically smallest of the names offered.
type smallest struct {
	name string
	ok   bool
}

func (s *smallest) offer(name string) {
	if !s.ok || name < s.name {
		s.name, s.ok = name, true
	}
}

// noteUnknown records report i's unknown attributes if no earlier report
// had any.
func (b *batchCols) noteUnknown(i int, disc, num smallest) {
	switch {
	case b.unknown.report >= 0:
	case disc.ok:
		b.unknown = unknownAttr{report: i, kind: "discrete", name: disc.name}
	case num.ok:
		b.unknown = unknownAttr{report: i, kind: "numeric", name: num.name}
	}
}

// fromBatch lays a Batch decoded by encoding/json out as columns.
func (b *batchCols) fromBatch(bs *batchSchema, batch *Batch) {
	b.reset(bs, len(batch.Reports))
	b.ID, b.Mechanism, b.TraceID = batch.ID, batch.Mechanism, batch.TraceID
	for _, rep := range batch.Reports {
		i := b.addReport()
		var disc, num smallest
		for name, v := range rep.Discrete {
			if j, ok := bs.discIdx[name]; ok {
				b.disc[j][i], b.has[j][i] = v, true
			} else {
				disc.offer(name)
			}
		}
		for name, x := range rep.Numeric {
			if j, ok := bs.numIdx[name]; ok {
				b.num[j][i] = x
			} else {
				num.offer(name)
			}
		}
		b.noteUnknown(i, disc, num)
	}
}

// window adopts b's columns as the relation one batch folds as: one row per
// report under schema, absent attributes missing. Discrete columns are
// encoded in enc's buffers, and numeric ones are b's own, so the relation is
// valid only until b is reset or enc encodes the next window.
func (b *batchCols) window(bs *batchSchema, schema relation.Schema, enc *encoder) (*relation.Relation, error) {
	if u := b.unknown; u.report >= 0 {
		return nil, fmt.Errorf("report %d: unknown %s attribute %q", u.report, u.kind, u.name)
	}
	enc.ix = growTo(enc.ix, len(bs.discrete))[:len(bs.discrete)]
	coded := make(map[string]*relation.DiscreteIndex, len(bs.discrete))
	for j, name := range bs.discrete {
		ix, err := enc.encode(&enc.ix[j], bs.domains[j], bs.positions[j], b.disc[j])
		if err != nil {
			return nil, err
		}
		coded[name] = ix
	}
	num := make(map[string][]float64, len(bs.numeric))
	for j, name := range bs.numeric {
		num[name] = b.num[j]
	}
	return relation.FromBacking(schema, b.n, num, coded)
}

// encoder dictionary-encodes the discrete columns of a fold's windows in
// buffers it reuses from one window to the next: an index per column (the
// counts are FromBacking's) and a rank per released-domain value.
type encoder struct {
	ix   []relation.DiscreteIndex
	rank []uint32
}

// encode encodes vals, a column of a window, into ix's buffers against dom,
// the column's sorted released domain, whose positions pos maps each value
// to. When pos finds every value, dom narrowed to the values present, in
// its own order, is the canonical domain, and codes are ranks within it. A
// value outside dom (or no dom at all) leaves the canonicalizing to
// relation.NewIndex.
func (e *encoder) encode(ix *relation.DiscreteIndex, dom []string, pos map[string]uint32, vals []string) (*relation.DiscreteIndex, error) {
	codes := growTo(ix.Codes, len(vals))[:len(vals)]
	ix.Codes = codes
	var extra []string
	for i, v := range vals {
		k, found := pos[v]
		if !found {
			k, extra = uint32(len(dom)+len(extra)), append(extra, v)
		}
		codes[i] = k
	}
	if len(extra) > 0 {
		return relation.NewIndex(append(slices.Clip(dom), extra...), codes)
	}
	e.rank = growTo(e.rank, len(dom))[:len(dom)]
	rank := e.rank
	clear(rank)
	for _, k := range codes {
		rank[k] = 1
	}
	used := ix.Domain[:0]
	for k, seen := range rank {
		if seen != 0 {
			rank[k] = uint32(len(used))
			used = append(used, dom[k])
		}
	}
	for i, k := range codes {
		codes[i] = rank[k]
	}
	ix.Domain = used
	return ix, nil
}

// batchDecoder decodes batches into columns under one schema. Attribute
// values and IDs repeat across reports, so each distinct string outside the
// schema's domains is allocated once per decoder; a decoder reused across a
// fold's payloads shares the table among them. Decoded strings never alias
// the input, so the caller may reuse its buffer once decode returns.
type batchDecoder struct {
	bs     *batchSchema
	data   []byte
	pos    int
	intern map[string]string
}

// decode decodes data into b. The fast path takes compact input with no
// whitespace, no escapes or control bytes in strings, valid UTF-8, each
// tagged field name exactly and at most once, and numbers in JSON grammar;
// any other input goes to json.Unmarshal, with its result and error text.
// fast reports which path decoded the batch.
func (d *batchDecoder) decode(b *batchCols, data []byte) (fast bool, err error) {
	d.data, d.pos = data, 0
	if d.batch(b) {
		return true, nil
	}
	var batch Batch
	if err := json.Unmarshal(data, &batch); err != nil {
		return false, err
	}
	b.fromBatch(d.bs, &batch)
	return false, nil
}

// next consumes c if it is the next byte.
func (d *batchDecoder) next(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// object walks the members of a JSON object, calling member after each key
// and its colon. An empty object calls nothing.
func (d *batchDecoder) object(member func(key []byte) bool) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	for {
		key, ok := d.raw()
		if !ok || !d.next(':') || !member(key) {
			return false
		}
		if d.next(',') {
			continue
		}
		return d.next('}')
	}
}

// once marks field bit as seen, failing on a repeat: encoding/json merges
// a repeated object field into the first, which the fast path leaves to it.
func once(seen *uint8, bit uint8) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

func (d *batchDecoder) batch(b *batchCols) bool {
	// A capacity hint only: "},{" separates reports, and may also sit
	// inside a string, so the hint is capped at the default batch bound.
	b.reset(d.bs, min(bytes.Count(d.data, []byte("},{"))+1, DefaultMaxBatchReports))
	var seen uint8
	ok := d.object(func(key []byte) bool {
		switch string(key) {
		case "batch_id":
			return once(&seen, 1) && d.str(&b.ID)
		case "mechanism":
			return once(&seen, 2) && d.str(&b.Mechanism)
		case "reports":
			return once(&seen, 4) && d.reports(b)
		case "trace_id":
			return once(&seen, 8) && d.str(&b.TraceID)
		}
		return false
	})
	return ok && d.pos == len(d.data)
}

// reports decodes a non-null array of reports; null goes to encoding/json.
func (d *batchDecoder) reports(b *batchCols) bool {
	if !d.next('[') {
		return false
	}
	if d.next(']') {
		return true
	}
	for {
		if !d.report(b) {
			return false
		}
		if d.next(',') {
			continue
		}
		return d.next(']')
	}
}

func (d *batchDecoder) report(b *batchCols) bool {
	i := b.addReport()
	var seen uint8
	var disc, num smallest
	ok := d.object(func(key []byte) bool {
		switch string(key) {
		case "discrete":
			return once(&seen, 1) && d.object(func(key []byte) bool {
				v, ok := d.raw()
				if !ok {
					return false
				}
				if j, known := d.bs.discIdx[string(key)]; known {
					b.disc[j][i], b.has[j][i] = d.value(j, v), true
				} else if b.unknown.report < 0 {
					disc.offer(string(key))
				}
				return true
			})
		case "numeric":
			return once(&seen, 2) && d.object(func(key []byte) bool {
				x, ok := d.number()
				if !ok {
					return false
				}
				if j, known := d.bs.numIdx[string(key)]; known {
					b.num[j][i] = x
				} else if b.unknown.report < 0 {
					num.offer(string(key))
				}
				return true
			})
		}
		return false
	})
	b.noteUnknown(i, disc, num)
	return ok
}

// raw consumes a string and returns its bytes, refusing escapes, control
// bytes and invalid UTF-8 — the inputs whose decoded form differs from
// their bytes.
func (d *batchDecoder) raw() ([]byte, bool) {
	if !d.next('"') {
		return nil, false
	}
	start := d.pos
	ascii := true
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; {
		case c == '"':
			s := d.data[start:d.pos]
			d.pos++
			return s, ascii || utf8.Valid(s)
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// str consumes a string value into *dst, interned.
func (d *batchDecoder) str(dst *string) bool {
	s, ok := d.raw()
	if ok {
		*dst = d.interned(s)
	}
	return ok
}

// value resolves a value of discrete column j: one in the column's domain
// is the domain's own string, and any other is interned. The lookup through
// string(v) does not allocate.
func (d *batchDecoder) value(j int, v []byte) string {
	if k, ok := d.bs.positions[j][string(v)]; ok {
		return d.bs.domains[j][k]
	}
	return d.interned(v)
}

func (d *batchDecoder) interned(s []byte) string {
	if v, ok := d.intern[string(s)]; ok {
		return v
	}
	if d.intern == nil {
		d.intern = make(map[string]string)
	}
	v := string(s)
	d.intern[v] = v
	return v
}

// number consumes a number in JSON grammar and parses it as encoding/json
// does. A literal ParseFloat refuses (out of range) fails the fast path so
// json.Unmarshal can word the error.
func (d *batchDecoder) number() (float64, bool) {
	start := d.pos
	d.next('-')
	if !d.next('0') && !d.digits() {
		return 0, false
	}
	if d.next('.') && !d.digits() {
		return 0, false
	}
	if d.next('e') || d.next('E') {
		if !d.next('+') {
			d.next('-')
		}
		if !d.digits() {
			return 0, false
		}
	}
	x, err := strconv.ParseFloat(string(d.data[start:d.pos]), 64)
	return x, err == nil
}

// digits consumes one or more decimal digits.
func (d *batchDecoder) digits() bool {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// appendBatch appends the WAL payload of b, the bytes json.Marshal renders
// for the Batch b was decoded from, to buf. Schema order is json.Marshal's
// sorted map-key order, so each report is one pass over the columns. b must
// hold at least one report, as validateBatch guarantees: json.Marshal would
// render an empty batch's reports as null or [] depending on how they were
// built, which columns do not record.
func (bs *batchSchema) appendBatch(buf []byte, b *batchCols) []byte {
	buf = append(buf, `{"batch_id":`...)
	buf = appendString(buf, b.ID)
	buf = append(buf, `,"mechanism":`...)
	buf = appendString(buf, b.Mechanism)
	buf = append(buf, `,"reports":[`...)
	for i := 0; i < b.n; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '{')
		open := false
		for j, has := range b.has {
			if has[i] {
				buf = member(buf, &open, `"discrete":{`, bs.discKey[j])
				buf = appendString(buf, b.disc[j][i])
			}
		}
		numeric := `"numeric":{`
		if open {
			buf = append(buf, '}')
			numeric, open = `,"numeric":{`, false
		}
		for j, col := range b.num {
			if !math.IsNaN(col[i]) {
				buf = member(buf, &open, numeric, bs.numKey[j])
				buf = appendFloat(buf, col[i])
			}
		}
		if open {
			buf = append(buf, '}')
		}
		buf = append(buf, '}')
	}
	buf = append(buf, ']')
	if b.TraceID != "" {
		buf = append(buf, `,"trace_id":`...)
		buf = appendString(buf, b.TraceID)
	}
	return append(buf, '}')
}

// member appends one object member's key, opening the object on its first
// member and separating later ones.
func member(buf []byte, open *bool, object string, key []byte) []byte {
	if *open {
		buf = append(buf, ',')
	} else {
		buf = append(buf, object...)
		*open = true
	}
	return append(buf, key...)
}

// appendString appends s quoted as json.Marshal quotes it. Strings it would
// escape — quotes, backslashes, control bytes, the HTML-sensitive <, > and
// &, invalid UTF-8, and U+2028/U+2029 — go through json.Marshal itself.
func appendString(buf []byte, s string) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				return appendEscaped(buf, s)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			return appendEscaped(buf, s)
		}
		i += size
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

func appendEscaped(buf []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always encodes
	return append(buf, q...)
}

// appendFloat appends finite x in encoding/json's float64 format: shortest
// round-tripping digits, exponent form outside [1e-6, 1e21), and a
// two-digit negative exponent trimmed to one.
func appendFloat(buf []byte, x float64) []byte {
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, x, format, -1, 64)
	if format == 'e' {
		n := len(buf)
		if n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf
}

package collect

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"privateclean/internal/privacy"
)

// The batch codec reads and writes the compact rendering json.Marshal(Batch)
// emits without reflection. encoding/json stays the reference: the decoder
// accepts only input whose meaning it can reproduce exactly and hands
// everything else to json.Unmarshal, and the encoder gives up on any value
// json.Marshal would escape or reject. FuzzBatchCodec holds both halves to
// the reference byte for byte.

// unmarshalBatch decodes data into a Batch. The fast path takes compact
// input with no whitespace, no escapes or control bytes in strings, valid
// UTF-8, each tagged field name exactly and at most once, and numbers in
// JSON grammar; any other input goes to json.Unmarshal, with its result and
// error text. fast reports which path decoded the batch.
func unmarshalBatch(data []byte) (b Batch, fast bool, err error) {
	d := batchDecoder{data: data}
	if d.batch(&b) {
		return b, true, nil
	}
	b = Batch{}
	err = json.Unmarshal(data, &b)
	return b, false, err
}

// batchDecoder is one fast-path decode. Attribute names and discrete values
// repeat across reports, so each distinct string is allocated once per call;
// the table dies with the call.
type batchDecoder struct {
	data   []byte
	pos    int
	intern map[string]string
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

func (d *batchDecoder) batch(b *Batch) bool {
	var seen uint8
	ok := d.object(func(key []byte) bool {
		switch string(key) {
		case "batch_id":
			return once(&seen, 1) && d.str(&b.ID)
		case "mechanism":
			return once(&seen, 2) && d.str(&b.Mechanism)
		case "reports":
			return once(&seen, 4) && d.reports(&b.Reports)
		case "trace_id":
			return once(&seen, 8) && d.str(&b.TraceID)
		}
		return false
	})
	return ok && d.pos == len(d.data)
}

func (d *batchDecoder) reports(out *[]privacy.Report) bool {
	if !d.next('[') {
		return false
	}
	// A capacity hint only: "},{" separates reports, and may also sit
	// inside a string, so the hint is capped at the default batch bound.
	hint := min(bytes.Count(d.data[d.pos:], []byte("},{"))+1, DefaultMaxBatchReports)
	reps := make([]privacy.Report, 0, hint)
	if !d.next(']') {
		for {
			var rep privacy.Report
			if !d.report(&rep) {
				return false
			}
			reps = append(reps, rep)
			if d.next(',') {
				continue
			}
			if !d.next(']') {
				return false
			}
			break
		}
	}
	*out = reps
	return true
}

func (d *batchDecoder) report(rep *privacy.Report) bool {
	var seen uint8
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "discrete":
			if !once(&seen, 1) {
				return false
			}
			m := make(map[string]string)
			rep.Discrete = m
			return d.object(func(key []byte) bool {
				var v string
				if !d.str(&v) {
					return false
				}
				m[d.interned(key)] = v
				return true
			})
		case "numeric":
			if !once(&seen, 2) {
				return false
			}
			m := make(map[string]float64)
			rep.Numeric = m
			return d.object(func(key []byte) bool {
				x, ok := d.number()
				m[d.interned(key)] = x
				return ok
			})
		}
		return false
	})
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

// marshalBatch renders b exactly as json.Marshal(b) does. sizeHint
// presizes the output (the request body length is a good guess).
func marshalBatch(b *Batch, sizeHint int) ([]byte, error) {
	e := batchEncoder{buf: make([]byte, 0, sizeHint)}
	if e.batch(b) {
		return e.buf, nil
	}
	return json.Marshal(b)
}

// batchEncoder appends a Batch's json.Marshal rendering. It gives up
// (returns false) on any string json.Marshal would escape and on non-finite
// numbers, which json.Marshal refuses.
type batchEncoder struct {
	buf  []byte
	keys []string
}

func (e *batchEncoder) batch(b *Batch) bool {
	e.buf = append(e.buf, `{"batch_id":`...)
	if !e.str(b.ID) {
		return false
	}
	e.buf = append(e.buf, `,"mechanism":`...)
	if !e.str(b.Mechanism) {
		return false
	}
	e.buf = append(e.buf, `,"reports":`...)
	if b.Reports == nil {
		e.buf = append(e.buf, "null"...)
	} else {
		e.buf = append(e.buf, '[')
		for i := range b.Reports {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			if !e.report(&b.Reports[i]) {
				return false
			}
		}
		e.buf = append(e.buf, ']')
	}
	if b.TraceID != "" {
		e.buf = append(e.buf, `,"trace_id":`...)
		if !e.str(b.TraceID) {
			return false
		}
	}
	e.buf = append(e.buf, '}')
	return true
}

func (e *batchEncoder) report(rep *privacy.Report) bool {
	e.buf = append(e.buf, '{')
	if len(rep.Discrete) > 0 {
		e.buf = append(e.buf, `"discrete":{`...)
		e.keys = sortedKeys(e.keys, rep.Discrete)
		for i, k := range e.keys {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			if !e.str(k) {
				return false
			}
			e.buf = append(e.buf, ':')
			if !e.str(rep.Discrete[k]) {
				return false
			}
		}
		e.buf = append(e.buf, '}')
	}
	if len(rep.Numeric) > 0 {
		if len(rep.Discrete) > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, `"numeric":{`...)
		e.keys = sortedKeys(e.keys, rep.Numeric)
		for i, k := range e.keys {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			if !e.str(k) {
				return false
			}
			e.buf = append(e.buf, ':')
			if !e.float(rep.Numeric[k]) {
				return false
			}
		}
		e.buf = append(e.buf, '}')
	}
	e.buf = append(e.buf, '}')
	return true
}

// sortedKeys returns m's keys in json.Marshal's order, reusing buf.
func sortedKeys[V any](buf []string, m map[string]V) []string {
	buf = buf[:0]
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}

// str appends s quoted, or fails when json.Marshal would escape any of it:
// quotes, backslashes, control bytes, the HTML-sensitive <, > and &,
// invalid UTF-8, and U+2028/U+2029.
func (e *batchEncoder) str(s string) bool {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			return false
		}
		i += size
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, '"')
	return true
}

// float appends x in encoding/json's float64 format: shortest
// round-tripping digits, exponent form outside [1e-6, 1e21), and a
// two-digit negative exponent trimmed to one.
func (e *batchEncoder) float(x float64) bool {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return false
	}
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, x, format, -1, 64)
	if format == 'e' {
		n := len(e.buf)
		if n >= 4 && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
			e.buf[n-2] = e.buf[n-1]
			e.buf = e.buf[:n-1]
		}
	}
	return true
}

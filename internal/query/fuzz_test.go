package query

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzParse checks the parser never panics, and that any query it accepts
// round-trips through String() to an equivalent parse.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT count(1) FROM R WHERE major = 'Mech. Eng.'",
		"SELECT sum(score) FROM R WHERE major IN ('a', 'b')",
		"SELECT avg(score) FROM R WHERE isEurope(country)",
		"SELECT count(*) FROM R GROUP BY state",
		"SELECT median(x) FROM t WHERE a != NULL",
		"SELECT count(1) FROM R WHERE a = '1' AND b = '2'",
		"SELECT var(x) FROM t",
		"select COUNT ( 1 ) from r where NOT NOT d <> \"x\"",
		"SELECT count(1) FROM R WHERE major = 'O''Brien'",
		"SELECT count(1) FROM R WHERE café = 'naïve'",
		`SELECT sum(x) FROM R WHERE ünï IN ('O''Brien', "say ""hi""", '☃', '')`,
		"SELECT avg(x) FROM R WHERE é <> '\xff''x' AND d != ''''",
		"",
		"SELECT",
		"🙂 SELECT count(1)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return // rejections are fine; panics are not
		}
		rendered := q.String()
		q2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rejected own rendering %q: %v", src, rendered, err)
		}
		if q2.String() != rendered {
			t.Fatalf("rendering not a fixed point: %q -> %q", rendered, q2.String())
		}
	})
}

// FuzzCompilePredicate checks the cond -> estimator.Predicate compiler on
// arbitrary attribute and value strings: compilation never panics, compiling
// the same condition twice yields the same description (the ChannelCache
// key), distinct IN value sets never alias to one key, and a rendered
// condition re-parses and re-compiles to an equivalent predicate.
func FuzzCompilePredicate(f *testing.F) {
	f.Add("major", "a", "b")
	f.Add("major", "O'Brien", "b, c")
	f.Add("category", "", ", ")
	f.Add("state", "NULL", "null")
	f.Add("x_1", "café", "☃")
	f.Add("in", "not", "and")
	f.Fuzz(func(t *testing.T, attr, v1, v2 string) {
		udfs := UDFs{"isprobe": func(s string) bool { return strings.HasPrefix(s, "p") }}
		joined := v1 + ", " + v2
		probes := []string{v1, v2, joined, "", "probe", "zzz"}

		conds := []*Cond{
			{Kind: CondEq, Attr: attr, Values: []string{v1}},
			{Kind: CondEq, Attr: attr, Values: []string{v1}, Negate: true},
			{Kind: CondIn, Attr: attr, Values: []string{v1, v2}},
			{Kind: CondIn, Attr: attr, Values: []string{v1, v2}, Negate: true},
			{Kind: CondUDF, Attr: attr, UDF: "isProbe"},
		}
		for _, c := range conds {
			pred, err := CompilePredicate(c, udfs)
			if err != nil {
				t.Fatalf("well-formed condition %s failed to compile: %v", c, err)
			}
			again, err := CompilePredicate(c, udfs)
			if err != nil {
				t.Fatalf("second compile of %s failed: %v", c, err)
			}
			if pred.String() != again.String() {
				t.Fatalf("compiling %s twice gave different cache keys: %q vs %q",
					c, pred.String(), again.String())
			}
			for _, pr := range probes {
				if pred.Match(pr) != again.Match(pr) {
					t.Fatalf("compiling %s twice gave different matchers at %q", c, pr)
				}
			}
		}
		if _, err := CompilePredicate(&Cond{Kind: CondUDF, Attr: attr, UDF: "nosuch"}, udfs); err == nil {
			t.Fatal("unknown UDF compiled without error")
		}

		// Cache-key aliasing: IN (v1, v2) and IN ("v1, v2") select different
		// value sets (the joined value is strictly longer than either part),
		// so their descriptions must differ — equal keys would let a
		// ChannelCache serve one query's channel for the other.
		many, err := CompilePredicate(&Cond{Kind: CondIn, Attr: attr, Values: []string{v1, v2}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		one, err := CompilePredicate(&Cond{Kind: CondIn, Attr: attr, Values: []string{joined}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if many.String() == one.String() {
			t.Fatalf("IN (%q, %q) and IN (%q) alias to cache key %q", v1, v2, joined, many.String())
		}
		if !many.Match(v1) || !many.Match(v2) || many.Match(joined) {
			t.Fatalf("IN (%q, %q) matcher wrong on its own values", v1, v2)
		}
		if !one.Match(joined) {
			t.Fatalf("IN (%q) does not match its own value", joined)
		}

		// Quoted round trip: a rendered IN condition must re-parse and
		// re-compile to the same cache key and the same matcher. Invalid
		// UTF-8 is excluded because the lexer normalizes it to U+FFFD.
		if utf8.ValidString(v1) && utf8.ValidString(v2) {
			orig := &Cond{Kind: CondIn, Attr: "d", Values: []string{v1, v2}}
			src := "SELECT count(1) FROM R WHERE " + orig.String()
			q, err := Parse(src)
			if err != nil {
				t.Fatalf("rendered condition %q does not re-parse: %v", orig.String(), err)
			}
			if q.Where == nil || len(q.AndWhere) != 0 {
				t.Fatalf("rendered condition %q re-parsed to a different shape", orig.String())
			}
			p0, err := CompilePredicate(orig, nil)
			if err != nil {
				t.Fatal(err)
			}
			p1, err := CompilePredicate(q.Where, nil)
			if err != nil {
				t.Fatalf("re-parsed condition %s failed to compile: %v", q.Where, err)
			}
			if p0.String() != p1.String() {
				t.Fatalf("cache key drift across render round trip: %q vs %q", p0.String(), p1.String())
			}
			for _, pr := range probes {
				if p0.Match(pr) != p1.Match(pr) {
					t.Fatalf("matcher drift across render round trip at %q", pr)
				}
			}
		}
	})
}

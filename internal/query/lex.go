// Package query implements a small SQL dialect covering PrivateClean's
// query class (Section 3.2.2 of the paper):
//
//	SELECT agg FROM table [WHERE cond] [GROUP BY attr]
//
// where agg is COUNT(1|*), SUM(a), or AVG(a) over a numerical attribute a,
// and cond is a condition over a single discrete attribute d:
//
//	d = 'v' | d != 'v' | d <> 'v' | d IN ('v1', 'v2', ...)
//	| udf(d) | NOT cond
//
// UDF predicates (e.g. the paper's isEurope(country)) are resolved against a
// registry supplied at execution/compilation time.
//
// The package provides exact execution against a relation (used for ground
// truth) and compilation of the WHERE clause into an estimator.Predicate
// (used for private-relation estimation).
package query

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokNumber
	tokPunct // single punctuation: ( ) , = and the multi-rune != <>
)

// token is 24 bytes: a rune position fits in int32, as a query body is at
// most 1 MiB (the servers' maxBodyBytes).
type token struct {
	text string
	pos  int32
	kind tokenKind
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of query"
	case tokString:
		return fmt.Sprintf("string %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lex splits a query string into tokens. It scans src by byte offset, so
// identifiers, numbers and most quoted strings are substrings of src;
// positions, in tokens and in errors, count runes.
func lex(src string) ([]token, error) {
	toks := make([]token, 0, len(src)/4+4) // typical queries hold a token per 4 bytes
	runes, last := 0, 0                    // the rune count of src[:last]
	pos := func(i int) int32 {
		runes += utf8.RuneCountInString(src[last:i])
		last = i
		return int32(runes)
	}
	for i := 0; i < len(src); {
		r, size := utf8.DecodeRuneInString(src[i:])
		start := i
		i += size
		next, _ := utf8.DecodeRuneInString(src[i:]) // RuneError at the end
		switch {
		case unicode.IsSpace(r):
		case r == '\'' || r == '"':
			q := src[start]
			for ; i < len(src) && (src[i] != q || (i+1 < len(src) && src[i+1] == q)); i++ {
				if src[i] == q {
					i++ // a doubled quote is an escaped quote
				}
			}
			if i == len(src) {
				return nil, fmt.Errorf("query: unterminated string starting at position %d", pos(start))
			}
			text, qs := src[start+1:i], src[start:start+1]
			if strings.Contains(text, qs) || !utf8.ValidString(text) {
				// A doubled quote reads as one, an invalid byte as U+FFFD.
				text = strings.ReplaceAll(string([]rune(text)), qs+qs, qs)
			}
			toks = append(toks, token{kind: tokString, text: text, pos: pos(start)})
			i++
		case (r == '!' && next == '=') || (r == '<' && next == '>'):
			toks = append(toks, token{kind: tokPunct, text: "!=", pos: pos(start)})
			i++
		case r == '(' || r == ')' || r == ',' || r == '=' || r == '*':
			toks = append(toks, token{kind: tokPunct, text: src[start:i], pos: pos(start)})
		case unicode.IsDigit(r) || (r == '-' && unicode.IsDigit(next)):
			for c, n := utf8.DecodeRuneInString(src[i:]); unicode.IsDigit(c) || c == '.'; c, n = utf8.DecodeRuneInString(src[i:]) {
				i += n
			}
			toks = append(toks, token{kind: tokNumber, text: src[start:i], pos: pos(start)})
		case unicode.IsLetter(r) || r == '_':
			for c, n := utf8.DecodeRuneInString(src[i:]); unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '.'; c, n = utf8.DecodeRuneInString(src[i:]) {
				i += n
			}
			toks = append(toks, token{kind: tokIdent, text: src[start:i], pos: pos(start)})
		default:
			return nil, fmt.Errorf("query: unexpected character %q at position %d", r, pos(start))
		}
	}
	return append(toks, token{kind: tokEOF, pos: pos(len(src))}), nil
}

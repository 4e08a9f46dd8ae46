package query

import (
	"fmt"
	"testing"
	"unsafe"
)

// The lexer pre-sizes its token slice per query, so a token's size is a
// per-request allocation.
func TestTokenSize(t *testing.T) {
	if n := unsafe.Sizeof(token{}); n != 24 {
		t.Fatalf("token is %d bytes, want 24", n)
	}
}

// TestLexTokens pins token kinds, texts and rune positions, and both lexer
// errors, over multi-byte identifiers and strings, doubled quotes, both
// spellings of not-equal and negative numbers.
func TestLexTokens(t *testing.T) {
	type tok struct {
		kind tokenKind
		text string
		pos  int
	}
	for _, tc := range []struct {
		src  string
		want []tok
		err  string
	}{
		{src: "café = 'naïve'", want: []tok{
			{tokIdent, "café", 0}, {tokPunct, "=", 5}, {tokString, "naïve", 7}, {tokEOF, "", 14},
		}},
		{src: `ünï IN ('O''Brien', "say ""hi""", '')`, want: []tok{
			{tokIdent, "ünï", 0}, {tokIdent, "IN", 4}, {tokPunct, "(", 7},
			{tokString, "O'Brien", 8}, {tokPunct, ",", 18},
			{tokString, `say "hi"`, 20}, {tokPunct, ",", 32},
			{tokString, "", 34}, {tokPunct, ")", 36}, {tokEOF, "", 37},
		}},
		{src: "é != '☃' AND d <> 'x'", want: []tok{
			{tokIdent, "é", 0}, {tokPunct, "!=", 2}, {tokString, "☃", 5},
			{tokIdent, "AND", 9}, {tokIdent, "d", 13}, {tokPunct, "!=", 15},
			{tokString, "x", 18}, {tokEOF, "", 21},
		}},
		{src: "quantile(ü, -0.25) -7", want: []tok{
			{tokIdent, "quantile", 0}, {tokPunct, "(", 8}, {tokIdent, "ü", 9},
			{tokPunct, ",", 10}, {tokNumber, "-0.25", 12}, {tokPunct, ")", 17},
			{tokNumber, "-7", 19}, {tokEOF, "", 21},
		}},
		{src: "ß = 'naïve", err: "query: unterminated string starting at position 4"},
		{src: "ß = 'a''", err: "query: unterminated string starting at position 4"},
		{src: "ünï = 'é' ; x", err: `query: unexpected character ';' at position 10`},
		{src: "é - 1", err: `query: unexpected character '-' at position 2`},
	} {
		toks, err := lex(tc.src)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("lex(%q): error %v, want %q", tc.src, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("lex(%q): %v", tc.src, err)
			continue
		}
		got := make([]tok, len(toks))
		for i, x := range toks {
			got[i] = tok{x.kind, x.text, int(x.pos)}
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("lex(%q):\n got %v\nwant %v", tc.src, got, tc.want)
		}
	}
}

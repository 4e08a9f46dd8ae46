package cleaning

import (
	"fmt"
	"regexp"
	"strings"
)

// This file holds additional library cleaners built on the three primitive
// operations. They are conveniences — everything here could be written as a
// Transform by hand — but they capture the cleaning idioms the paper's
// examples and evaluation use day to day.

// RegexReplace rewrites each value by replacing every match of Pattern with
// Replacement (using regexp.ReplaceAllString semantics, so $1-style group
// references work). The value function is deterministic, so provenance
// stays fork-free.
type RegexReplace struct {
	Attr        string
	Pattern     string
	Replacement string
}

// Name implements Op.
func (r RegexReplace) Name() string {
	return fmt.Sprintf("regex-replace(%s: /%s/ -> %q)", r.Attr, r.Pattern, r.Replacement)
}

func (r RegexReplace) compile(*Context) (*step, error) {
	re, err := regexp.Compile(r.Pattern)
	if err != nil {
		return nil, fmt.Errorf("invalid pattern: %w", err)
	}
	return valueStep(r.Attr, func(v string) string { return re.ReplaceAllString(v, r.Replacement) }), nil
}

// Canonicalize trims whitespace, collapses internal runs of whitespace to
// one space, and optionally lowercases — the usual first pass over
// free-text attributes before value matching.
type Canonicalize struct {
	Attr      string
	Lowercase bool
}

// Name implements Op.
func (c Canonicalize) Name() string { return fmt.Sprintf("canonicalize(%s)", c.Attr) }

var whitespaceRun = regexp.MustCompile(`\s+`)

func (c Canonicalize) compile(*Context) (*step, error) {
	return valueStep(c.Attr, func(v string) string {
		v = strings.TrimSpace(v)
		v = whitespaceRun.ReplaceAllString(v, " ")
		if c.Lowercase {
			v = strings.ToLower(v)
		}
		return v
	}), nil
}

// TrimPrefixSuffix strips a fixed prefix and/or suffix when present —
// common for unit suffixes or source tags embedded in values.
type TrimPrefixSuffix struct {
	Attr   string
	Prefix string
	Suffix string
}

// Name implements Op.
func (t TrimPrefixSuffix) Name() string {
	return fmt.Sprintf("trim(%s: prefix=%q suffix=%q)", t.Attr, t.Prefix, t.Suffix)
}

func (t TrimPrefixSuffix) compile(*Context) (*step, error) {
	return valueStep(t.Attr, func(v string) string {
		if t.Prefix != "" {
			v = strings.TrimPrefix(v, t.Prefix)
		}
		if t.Suffix != "" {
			v = strings.TrimSuffix(v, t.Suffix)
		}
		return v
	}), nil
}

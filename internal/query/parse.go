package query

import (
	"fmt"
	"strconv"
	"strings"

	"privateclean/internal/faults"
	"privateclean/internal/telemetry"
)

// AggKind identifies the aggregate of a query.
type AggKind int

const (
	// AggCount is COUNT(1) or COUNT(*).
	AggCount AggKind = iota
	// AggSum is SUM(a) over a numerical attribute.
	AggSum
	// AggAvg is AVG(a) over a numerical attribute.
	AggAvg
	// AggMedian is MEDIAN(a) — a Section 10 extension aggregate.
	AggMedian
	// AggVar is VAR(a) — a Section 10 extension aggregate.
	AggVar
	// AggStd is STD(a) — a Section 10 extension aggregate.
	AggStd
	// AggQuantile is QUANTILE(a, q) with q in [0,1]; QUANTILE(a, 0.5) is
	// MEDIAN(a).
	AggQuantile
)

// String returns the SQL spelling of the aggregate.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMedian:
		return "median"
	case AggVar:
		return "var"
	case AggStd:
		return "std"
	case AggQuantile:
		return "quantile"
	default:
		return fmt.Sprintf("AggKind(%d)", int(k))
	}
}

// CondKind identifies the shape of a WHERE condition.
type CondKind int

const (
	// CondEq is attr = 'value'.
	CondEq CondKind = iota
	// CondIn is attr IN ('v1', ...).
	CondIn
	// CondUDF is udf(attr).
	CondUDF
)

// Cond is a parsed WHERE condition over a single discrete attribute.
type Cond struct {
	Kind   CondKind
	Attr   string
	Values []string // CondEq: 1 value; CondIn: >= 1 values
	UDF    string   // CondUDF: registered function name
	Negate bool     // NOT cond, attr != value, NOT IN
}

// quoteValue renders a value as a SQL string literal, doubling embedded
// single quotes so String() output always re-parses.
func quoteValue(v string) string {
	return "'" + strings.ReplaceAll(v, "'", "''") + "'"
}

// String renders the condition back to SQL.
func (c *Cond) String() string {
	switch c.Kind {
	case CondEq:
		op := "="
		if c.Negate {
			op = "!="
		}
		return fmt.Sprintf("%s %s %s", c.Attr, op, quoteValue(c.Values[0]))
	case CondIn:
		quoted := make([]string, len(c.Values))
		for i, v := range c.Values {
			quoted[i] = quoteValue(v)
		}
		op := "IN"
		if c.Negate {
			op = "NOT IN"
		}
		return fmt.Sprintf("%s %s (%s)", c.Attr, op, strings.Join(quoted, ", "))
	case CondUDF:
		s := fmt.Sprintf("%s(%s)", c.UDF, c.Attr)
		if c.Negate {
			s = "NOT " + s
		}
		return s
	default:
		return "<invalid cond>"
	}
}

// Query is a parsed aggregate query.
type Query struct {
	Agg     AggKind
	AggAttr string  // numerical attribute for SUM/AVG; empty for COUNT
	Q       float64 // quantile level for AggQuantile (0.5 for MEDIAN's spelling)
	Table   string
	Where   *Cond // first (or only) WHERE conjunct; nil when absent
	// AndWhere holds additional conjuncts after the first when the WHERE
	// clause is a conjunction cond_1 AND cond_2 AND ... (the Section 10
	// SPJ-view extension).
	AndWhere []*Cond
	GroupBy  string // grouping attribute; empty when absent
	// GroupBin is true for GROUP BY bin(attr): grouping over the released
	// bin layout of the numeric attribute GroupBy instead of the distinct
	// values of a discrete one.
	GroupBin bool
}

// Conds returns all WHERE conjuncts in order (nil when there is no WHERE
// clause).
func (q *Query) Conds() []*Cond {
	if q.Where == nil {
		return nil
	}
	out := make([]*Cond, 0, 1+len(q.AndWhere))
	out = append(out, q.Where)
	out = append(out, q.AndWhere...)
	return out
}

// String renders the query back to SQL.
func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	switch q.Agg {
	case AggCount:
		sb.WriteString("count(1)")
	case AggQuantile:
		fmt.Fprintf(&sb, "quantile(%s, %g)", q.AggAttr, q.Q)
	default:
		fmt.Fprintf(&sb, "%s(%s)", q.Agg, q.AggAttr)
	}
	fmt.Fprintf(&sb, " FROM %s", q.Table)
	for i, c := range q.Conds() {
		if i == 0 {
			sb.WriteString(" WHERE ")
		} else {
			sb.WriteString(" AND ")
		}
		sb.WriteString(c.String())
	}
	if q.GroupBy != "" {
		if q.GroupBin {
			fmt.Fprintf(&sb, " GROUP BY bin(%s)", q.GroupBy)
		} else {
			fmt.Fprintf(&sb, " GROUP BY %s", q.GroupBy)
		}
	}
	return sb.String()
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokIdent || !strings.EqualFold(t.text, kw) {
		return fmt.Errorf("query: expected %s, got %s", strings.ToUpper(kw), t)
	}
	return nil
}

func (p *parser) expectPunct(s string) error {
	t := p.next()
	if t.kind != tokPunct || t.text != s {
		return fmt.Errorf("query: expected %q, got %s", s, t)
	}
	return nil
}

func (p *parser) isKeyword(t token, kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

// Parse parses one query. Failures are classified as faults.ErrBadQuery.
// Parse outcomes are counted in the process telemetry registry; the query
// text itself never reaches telemetry (predicate constants are data).
func Parse(src string) (*Query, error) {
	reg := telemetry.Default().Metrics
	q, err := parse(src)
	reg.Memo(parsedKey(err == nil), func() any {
		outcome := "ok"
		if err != nil {
			outcome = "error"
		}
		return reg.Counter("privateclean_queries_parsed_total",
			"Parsed queries, by outcome.", telemetry.L("outcome", outcome))
	}).(*telemetry.Counter).Inc()
	if err != nil {
		return nil, faults.Wrap(faults.ErrBadQuery, err)
	}
	return q, nil
}

// parsedKey keys Parse's counter for each outcome (true: ok) in a
// registry's Memo.
type parsedKey bool

func parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q := &Query{}

	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	if err := p.parseAgg(q); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("query: expected table name, got %s", t)
	}
	q.Table = t.text

	if p.isKeyword(p.peek(), "where") {
		p.next()
		cond, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		q.Where = cond
		for p.isKeyword(p.peek(), "and") {
			p.next()
			more, err := p.parseCond()
			if err != nil {
				return nil, err
			}
			q.AndWhere = append(q.AndWhere, more)
		}
	}
	if p.isKeyword(p.peek(), "group") {
		p.next()
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		t := p.next()
		if t.kind != tokIdent {
			return nil, fmt.Errorf("query: expected attribute after GROUP BY, got %s", t)
		}
		if strings.EqualFold(t.text, "bin") && p.peek().kind == tokPunct && p.peek().text == "(" {
			p.next()
			arg := p.next()
			if arg.kind != tokIdent {
				return nil, fmt.Errorf("query: GROUP BY bin needs a numerical attribute, got %s", arg)
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			q.GroupBy = arg.text
			q.GroupBin = true
		} else {
			q.GroupBy = t.text
		}
	}
	if t := p.next(); t.kind != tokEOF {
		return nil, fmt.Errorf("query: unexpected trailing %s", t)
	}
	if q.GroupBy != "" && q.Where != nil {
		return nil, fmt.Errorf("query: GROUP BY with WHERE is not supported by the PrivateClean query class")
	}
	return q, nil
}

func (p *parser) parseAgg(q *Query) error {
	t := p.next()
	if t.kind != tokIdent {
		return fmt.Errorf("query: expected aggregate, got %s", t)
	}
	switch strings.ToLower(t.text) {
	case "count":
		q.Agg = AggCount
	case "sum":
		q.Agg = AggSum
	case "avg":
		q.Agg = AggAvg
	case "median":
		q.Agg = AggMedian
	case "var", "variance":
		q.Agg = AggVar
	case "std", "stddev":
		q.Agg = AggStd
	case "quantile", "percentile":
		q.Agg = AggQuantile
	default:
		return fmt.Errorf("query: unsupported aggregate %q (want count, sum, avg, median, quantile, var, or std)", t.text)
	}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	arg := p.next()
	switch q.Agg {
	case AggCount:
		ok := (arg.kind == tokNumber && arg.text == "1") || (arg.kind == tokPunct && arg.text == "*")
		if !ok {
			return fmt.Errorf("query: count takes 1 or *, got %s", arg)
		}
	default:
		if arg.kind != tokIdent {
			return fmt.Errorf("query: %s needs a numerical attribute, got %s", q.Agg, arg)
		}
		q.AggAttr = arg.text
	}
	if q.Agg == AggQuantile {
		if err := p.expectPunct(","); err != nil {
			return err
		}
		t := p.next()
		if t.kind != tokNumber {
			return fmt.Errorf("query: quantile needs a numeric level in [0,1], got %s", t)
		}
		level, err := strconv.ParseFloat(t.text, 64)
		if err != nil || level < 0 || level > 1 {
			return fmt.Errorf("query: quantile level %q out of [0,1]", t.text)
		}
		q.Q = level
	}
	return p.expectPunct(")")
}

func (p *parser) parseCond() (*Cond, error) {
	if p.isKeyword(p.peek(), "not") {
		p.next()
		inner, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		inner.Negate = !inner.Negate
		return inner, nil
	}
	t := p.next()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("query: expected attribute or UDF in WHERE, got %s", t)
	}
	name := t.text

	nxt := p.peek()
	switch {
	case nxt.kind == tokPunct && nxt.text == "(":
		// udf(attr)
		p.next()
		arg := p.next()
		if arg.kind != tokIdent {
			return nil, fmt.Errorf("query: UDF %s needs an attribute argument, got %s", name, arg)
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &Cond{Kind: CondUDF, Attr: arg.text, UDF: name}, nil

	case nxt.kind == tokPunct && (nxt.text == "=" || nxt.text == "!="):
		p.next()
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		return &Cond{Kind: CondEq, Attr: name, Values: []string{v}, Negate: nxt.text == "!="}, nil

	case p.isKeyword(nxt, "in") || p.isKeyword(nxt, "not"):
		negate := false
		if p.isKeyword(nxt, "not") {
			p.next()
			negate = true
		}
		if err := p.expectKeyword("in"); err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var values []string
		for {
			v, err := p.parseValue()
			if err != nil {
				return nil, err
			}
			values = append(values, v)
			t := p.next()
			if t.kind == tokPunct && t.text == "," {
				continue
			}
			if t.kind == tokPunct && t.text == ")" {
				break
			}
			return nil, fmt.Errorf("query: expected , or ) in IN list, got %s", t)
		}
		return &Cond{Kind: CondIn, Attr: name, Values: values, Negate: negate}, nil

	default:
		return nil, fmt.Errorf("query: expected =, !=, IN, or ( after %q, got %s", name, nxt)
	}
}

// parseValue accepts a string literal, a number (rendered verbatim), a
// bareword, or the keyword NULL (mapped to the relation.Null sentinel by the
// caller via the literal text "NULL").
func (p *parser) parseValue() (string, error) {
	t := p.next()
	switch t.kind {
	case tokString, tokNumber:
		return t.text, nil
	case tokIdent:
		if strings.EqualFold(t.text, "null") {
			return "NULL", nil
		}
		return t.text, nil
	default:
		return "", fmt.Errorf("query: expected value, got %s", t)
	}
}

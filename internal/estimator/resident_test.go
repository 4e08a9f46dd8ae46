package estimator

// Differential tests for the resident estimators: every family answered
// from the per-code aggregate layer must give the same bits whether the
// relation was loaded from CSV or from a .pcol file and whether a
// ChannelCache is attached (cold or warm), and must match a naive row-scan
// reference kept in this file.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"privateclean/internal/colstore"
	"privateclean/internal/csvio"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
	"privateclean/internal/stats"
)

var residentSchema = relation.MustSchema(
	relation.Column{Name: "cat", Kind: relation.Discrete},
	relation.Column{Name: "grp", Kind: relation.Discrete},
	relation.Column{Name: "sec", Kind: relation.Discrete},
	relation.Column{Name: "x", Kind: relation.Numeric},
)

// randomResident builds a small random relation over residentSchema and its
// view metadata. The cat domain has 1..maxDomain values (one value is a
// one-value domain) and sec has up to three, so the joint table of a
// three-attribute conjunction is sometimes denser and sometimes sparser
// than the rows; NaN cells, tied values, zeros, a code whose cells are all
// NaN and a single-row code occur at random.
func randomResident(rng *rand.Rand, rows, maxDomain int) (*relation.Relation, *privacy.ViewMeta) {
	k := 1 + rng.Intn(maxDomain)
	var cats, grps []string
	var xs []float64
	cell := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return math.NaN()
		case 1:
			return float64(rng.Intn(3)) // ties, and zeros
		default:
			return math.Round(rng.NormFloat64()*1e6) / 1e3
		}
	}
	add := func(cat string, x float64) {
		cats = append(cats, cat)
		grps = append(grps, fmt.Sprintf("g%d", rng.Intn(2)))
		xs = append(xs, x)
	}
	for i := 0; i < rows; i++ {
		v := rng.Intn(k)
		if rng.Intn(2) == 0 {
			v = 0 // skew toward v0
		}
		add(fmt.Sprintf("v%d", v), cell())
	}
	if rng.Intn(3) == 0 {
		for i := rng.Intn(3); i >= 0; i-- {
			add("vnan", math.NaN())
		}
	}
	if rng.Intn(2) == 0 {
		add("vone", cell())
	}
	rng.Shuffle(len(cats), func(i, j int) {
		cats[i], cats[j] = cats[j], cats[i]
		grps[i], grps[j] = grps[j], grps[i]
		xs[i], xs[j] = xs[j], xs[i]
	})
	secs := make([]string, len(cats))
	for i := range secs {
		secs[i] = fmt.Sprintf("s%d", rng.Intn(3))
	}
	rel, err := relation.FromColumns(residentSchema,
		map[string][]float64{"x": xs},
		map[string][]string{"cat": cats, "grp": grps, "sec": secs})
	if err != nil {
		panic(err)
	}
	catDomain, _ := rel.Domain("cat")
	meta := &privacy.ViewMeta{
		Discrete: map[string]privacy.DiscreteMeta{
			// The released domains carry values absent from the view.
			"cat": {Name: "cat", P: []float64{0, 0.1, 0.3, 0.5}[rng.Intn(4)], Domain: append(append([]string(nil), catDomain...), "zz")},
			"grp": {Name: "grp", P: 0.2, Domain: []string{"g0", "g1", "g2"}},
			"sec": {Name: "sec", P: 0.3, Domain: []string{"s0", "s1", "s2"}},
		},
		Numeric: map[string]privacy.NumericMeta{
			"x": {Name: "x", B: 1, Delta: 200, Lo: -100, Bins: 1 + rng.Intn(6)},
		},
		Rows: rel.NumRows(),
	}
	return rel, meta
}

// residentPreds returns the cat predicates every family is evaluated under.
func residentPreds(rng *rand.Rand, rel *relation.Relation) []Predicate {
	dom, _ := rel.Domain("cat")
	pick := func() string { return dom[rng.Intn(len(dom))] }
	return []Predicate{
		{},            // no WHERE
		{Attr: "cat"}, // nil Match: match-all
		Eq("cat", pick()),
		Eq("cat", "zz"), // match-none
		NotEq("cat", pick()),
		In("cat", pick(), pick()),
		Not(In("cat", pick())),
		And(In("cat", pick(), pick(), "zz"), NotEq("cat", pick())),
		Fn("cat", "odd", func(v string) bool { return len(v) > 0 && (v[len(v)-1]-'0')%2 == 1 }),
	}
}

// loadTwins writes rel as CSV and returns the CSV-loaded relation and the
// .pcol-loaded one, the two backings `pc query -in` and `-col` read.
func loadTwins(t testing.TB, rel *relation.Relation) (csvRel, colRel *relation.Relation) {
	t.Helper()
	var csvBuf bytes.Buffer
	if err := csvio.Write(&csvBuf, rel); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]relation.Kind{"cat": relation.Discrete, "grp": relation.Discrete, "sec": relation.Discrete, "x": relation.Numeric}
	csvRel, _, err := csvio.ReadWithReport(bytes.NewReader(csvBuf.Bytes()), csvio.Options{ForceKinds: kinds})
	if err != nil {
		t.Fatal(err)
	}
	var colBuf bytes.Buffer
	if _, err := colstore.Write(&colBuf, csvRel); err != nil {
		t.Fatal(err)
	}
	if colRel, err = colstore.Decode(colBuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	return csvRel, colRel
}

// outcome is one estimator call's result: its floats, or its error text.
type outcome struct {
	vals []float64
	err  string
}

// transcript maps family/case keys to outcomes.
type transcript map[string]outcome

func (tr transcript) put(key string, err error, vals ...float64) {
	if err != nil {
		tr[key] = outcome{err: err.Error()}
		return
	}
	tr[key] = outcome{vals: vals}
}

func (tr transcript) est(key string, e Estimate, err error) { tr.put(key, err, e.Value, e.CI) }

func (tr transcript) groups(key string, g map[string]Estimate, err error) {
	if err != nil {
		tr.put(key, err)
		return
	}
	for v, e := range g {
		tr.est(key+"/"+v, e, nil)
	}
}

func (tr transcript) bins(key string, bs []BinEstimate, err error) {
	if err != nil {
		tr.put(key, err)
		return
	}
	for _, b := range bs {
		tr.est(key+"/"+b.Label, b.Est, nil)
	}
}

var residentQs = []float64{0, 0.25, 0.5, 0.9, 1}

// residentConjs returns the two- and three-attribute conjunctions built on
// a cat predicate.
func residentConjs(p Predicate) [][]Predicate {
	return [][]Predicate{
		{p, Eq("grp", "g0")},
		{In("sec", "s0", "s2"), p, NotEq("grp", "g1")},
	}
}

// residentTranscript evaluates every resident family through the estimator,
// and the Direct values ("d" keys) through its nominal twin.
func residentTranscript(e *Estimator, rel *relation.Relation, preds []Predicate) transcript {
	tr := transcript{}
	n := e.Nominal()
	nonNaN := nonNaNRows(rel, "x")
	for i, p := range preds {
		k := fmt.Sprintf("/p%d", i)
		c, err := e.Count(rel, p)
		tr.est("count"+k, c, err)
		s, err := e.Sum(rel, "x", p)
		tr.est("sum"+k, s, err)
		a, err := e.Avg(rel, "x", p)
		tr.est("avg"+k, a, err)
		s, err = e.SumIgnoringFalsePositives(rel, "x", p)
		tr.est("sumfp"+k, s, err)
		d, err := n.Count(rel, p)
		tr.put("dcount"+k, err, d.Value)
		d, err = n.Sum(rel, "x", p)
		tr.put("dsum"+k, err, d.Value)
		d, err = n.Avg(rel, "x", p)
		tr.put("davg"+k, err, d.Value)
		for _, q := range residentQs {
			qk := fmt.Sprintf("%v%s", q, k)
			v, err := e.Percentile(rel, "x", p, q)
			tr.est("quantile/"+qk, v, err)
			d, err := n.Percentile(rel, "x", p, q)
			tr.put("dquantile/"+qk, err, d.Value)
		}
		m, err := e.Median(rel, "x", p)
		tr.est("median"+k, m, err)
		v, err := e.Var(rel, "x", p)
		tr.est("var"+k, v, err)
		v, err = e.Std(rel, "x", p)
		tr.est("std"+k, v, err)
		d, err = n.Var(rel, "x", p)
		tr.put("dvar"+k, err, d.Value)
		for _, conj := range residentConjs(p) {
			ck := fmt.Sprintf("%s/%d", k, len(conj))
			c, err = e.CountConj(rel, conj...)
			tr.est("conj-count"+ck, c, err)
			s, err = e.SumConj(rel, "x", conj...)
			tr.est("conj-sum"+ck, s, err)
			a, err = e.AvgConj(rel, "x", conj...)
			tr.est("conj-avg"+ck, a, err)
			c, err = e.CountConj(nonNaN, conj...)
			tr.est("conj-avgcount"+ck, c, err)
			d, err = n.CountConj(rel, conj...)
			tr.put("dconj-count"+ck, err, d.Value)
			d, err = n.SumConj(rel, "x", conj...)
			tr.put("dconj-sum"+ck, err, d.Value)
		}
	}
	g, err := e.GroupCounts(rel, "cat")
	tr.groups("group-count", g, err)
	g, err = e.GroupSums(rel, "cat", "x")
	tr.groups("group-sum", g, err)
	g, err = e.GroupAvgs(rel, "cat", "x")
	tr.groups("group-avg", g, err)
	b, err := e.GroupBinCounts(rel, "x")
	tr.bins("bin-count", b, err)
	b, err = e.GroupBinSums(rel, "x", "x")
	tr.bins("bin-sum", b, err)
	b, err = e.GroupBinAvgs(rel, "x", "x")
	tr.bins("bin-avg", b, err)
	return tr
}

// naiveMatch evaluates pred on every row's string (all rows for a nil
// Match).
func naiveMatch(rel *relation.Relation, pred Predicate) ([]bool, error) {
	m := make([]bool, rel.NumRows())
	if pred.Match == nil {
		for i := range m {
			m[i] = true
		}
		return m, nil
	}
	col, err := rel.Discrete(pred.Attr)
	if err != nil {
		return nil, err
	}
	for i, v := range col {
		m[i] = pred.Match(v)
	}
	return m, nil
}

// naiveMatchCol is naiveMatch for the families that always read the
// predicate's column.
func naiveMatchCol(rel *relation.Relation, pred Predicate) ([]bool, error) {
	if _, err := rel.Discrete(pred.Attr); err != nil {
		return nil, err
	}
	return naiveMatch(rel, pred)
}

func countTrue(m []bool) float64 {
	n := 0.0
	for _, b := range m {
		if b {
			n++
		}
	}
	return n
}

// naiveSums accumulates the non-NaN cells of the matched rows and of the
// rest, in row order.
func naiveSums(col []float64, m []bool) (hp, hpc float64) {
	for i, x := range col {
		if math.IsNaN(x) {
			continue
		}
		if m[i] {
			hp += x
		} else {
			hpc += x
		}
	}
	return hp, hpc
}

// naiveTotal sums the non-NaN cells of col in row order.
func naiveTotal(col []float64) float64 {
	_, rest := naiveSums(col, make([]bool, len(col)))
	return rest
}

func naiveCount(e *Estimator, rel *relation.Relation, pred Predicate) (Estimate, error) {
	ch, err := invertible(e.channel(pred))
	if err != nil {
		return Estimate{}, err
	}
	m, err := naiveMatchCol(rel, pred)
	if err != nil {
		return Estimate{}, err
	}
	return e.countEstimate(ch, countTrue(m), float64(rel.NumRows()))
}

// naiveSumInputs gathers the Eq. 5 inputs by row scan.
func naiveSumInputs(rel *relation.Relation, agg string, pred Predicate) (hp, hpc, c, mu, v float64, err error) {
	m, err := naiveMatchCol(rel, pred)
	if err != nil {
		return
	}
	col, err := rel.Numeric(agg)
	if err != nil {
		return
	}
	if rel.NumRows() == 0 {
		err = errors.New("empty relation")
		return
	}
	if mu, err = stats.Mean(col); err != nil {
		return
	}
	if v, err = stats.Variance(col); err != nil {
		return
	}
	hp, hpc = naiveSums(col, m)
	return hp, hpc, countTrue(m), mu, v, nil
}

func naiveSum(e *Estimator, rel *relation.Relation, agg string, pred Predicate) (Estimate, error) {
	ch, err := invertible(e.channel(pred))
	if err != nil {
		return Estimate{}, err
	}
	hp, hpc, c, mu, v, err := naiveSumInputs(rel, agg, pred)
	if err != nil {
		return Estimate{}, err
	}
	return e.sumEstimate(ch, hp, hpc, c, float64(rel.NumRows()), mu, v)
}

// naiveAvg is the ratio estimator over the rows whose agg cell is non-NaN.
func naiveAvg(e *Estimator, rel *relation.Relation, agg string, pred Predicate) (Estimate, error) {
	ch, err := invertible(e.channel(pred))
	if err != nil {
		return Estimate{}, err
	}
	hp, hpc, _, mu, v, err := naiveSumInputs(rel, agg, pred)
	if err != nil {
		return Estimate{}, err
	}
	m, _ := naiveMatchCol(rel, pred)
	c, s := nonNaNCounts(rel.MustNumeric(agg), m)
	h, err := e.sumEstimate(ch, hp, hpc, c, s, mu, v)
	if err != nil {
		return Estimate{}, err
	}
	cnt, err := e.countEstimate(ch, c, s)
	if err != nil {
		return Estimate{}, err
	}
	if cnt.Value == 0 {
		return Estimate{}, ErrZeroEstimatedCount
	}
	r := h.Value / cnt.Value
	return Estimate{Value: r, CI: ratioCI(r, h, cnt)}, nil
}

// nonNaNCounts counts the non-NaN cells of col in the rows m matches and
// in all rows.
func nonNaNCounts(col []float64, m []bool) (matched, all float64) {
	for i, x := range col {
		if !math.IsNaN(x) {
			all++
			if m[i] {
				matched++
			}
		}
	}
	return matched, all
}

func naiveSumFP(e *Estimator, rel *relation.Relation, agg string, pred Predicate) (Estimate, error) {
	ch, err := e.channel(pred)
	if err != nil {
		return Estimate{}, err
	}
	hp, _, c, mu, v, err := naiveSumInputs(rel, agg, pred)
	if err != nil {
		return Estimate{}, err
	}
	tauP := ch.denom + ch.tauN
	if tauP <= 0 {
		return Estimate{}, errors.New("no signal")
	}
	s := float64(rel.NumRows())
	sp := c / s
	z, _ := stats.ZScore(e.confidence())
	return Estimate{Value: hp / tauP, CI: z / tauP * math.Sqrt(s*(sp*(1-sp)*mu*mu+v))}, nil
}

// naivePercentile is the binned quantile by row scan: every non-NaN cell,
// and every matched one, placed in its released bin, then the quantile
// math over those counts.
func naivePercentile(e *Estimator, rel *relation.Relation, agg string, pred Predicate, q float64) (Estimate, error) {
	if q < 0 || q > 1 {
		return Estimate{}, errors.New("q out of range")
	}
	ch, m := channelVal{denom: 1}, []bool(nil)
	var err error
	if pred.isTotal() {
		m, err = naiveMatch(rel, pred)
	} else if ch, err = invertible(e.channel(pred)); err == nil {
		m, err = naiveMatchCol(rel, pred)
	}
	if err != nil {
		return Estimate{}, err
	}
	l, err := e.binLayout(agg)
	if err != nil {
		return Estimate{}, err
	}
	edges := l.edges
	matched, hist := make([]float64, len(edges)-1), make([]int, len(edges)-1)
	for i, x := range rel.MustNumeric(agg) {
		if !math.IsNaN(x) {
			k := searchBin(edges, x)
			hist[k]++
			if m[i] {
				matched[k]++
			}
		}
	}
	return e.quantileEstimate(ch, edges, matched, hist, q)
}

// naiveVar is the noise-corrected variance with its fourth-moment interval,
// each moment in its own pass.
func naiveVar(e *Estimator, rel *relation.Relation, agg string, pred Predicate) (Estimate, error) {
	vals, err := matchedValues(rel, agg, pred)
	if err != nil {
		return Estimate{}, err
	}
	if len(vals) < 2 {
		return Estimate{}, errors.New("too few rows")
	}
	raw, _ := stats.Variance(vals)
	v := math.Max(0, raw-stats.LaplaceVariance(e.Meta.Numeric[agg].B))
	mean, _ := stats.Mean(vals)
	var m4 float64
	for _, x := range vals {
		d := x - mean
		m4 += d * d * d * d
	}
	m4 /= float64(len(vals))
	z, _ := stats.ZScore(e.confidence())
	return Estimate{Value: v, CI: z * math.Sqrt(math.Max(0, m4-raw*raw)/float64(len(vals)))}, nil
}

// naiveConj evaluates the conjunction estimators row by row: a row's
// weight is the product, in predicate order, of each conjunct's weight for
// the row's string, and its terms accumulate in row order.
func naiveConj(e *Estimator, rel *relation.Relation, agg string, preds []Predicate) (count, sum Estimate, dcount, dsum float64, err error) {
	if err = checkConj(preds); err != nil {
		return
	}
	type term struct {
		match         []bool
		wTrue, wFalse float64
	}
	terms := make([]term, len(preds))
	for i, p := range preds {
		wTrue, wFalse, werr := e.conjWeight(p)
		if werr != nil {
			err = werr
			return
		}
		m, merr := naiveMatchCol(rel, p)
		if merr != nil {
			err = merr
			return
		}
		terms[i] = term{m, wTrue, wFalse}
	}
	if rel.NumRows() == 0 {
		err = errors.New("empty relation")
		return
	}
	col := rel.MustNumeric(agg)
	all := make([]bool, rel.NumRows())
	var cAcc, hAcc, c2Acc, h2Acc, sumRows float64
	for r := range all {
		w, ok := 1.0, true
		for _, t := range terms {
			if t.match[r] {
				w *= t.wTrue
			} else {
				w *= t.wFalse
				ok = false
			}
		}
		all[r] = ok
		cAcc += w
		c2Acc += w * w
		if x := col[r]; !math.IsNaN(x) {
			sumRows++
			hAcc += w * x
			h2Acc += w * x * w * x
		}
	}
	countVar := math.Max(0, c2Acc-cAcc*cAcc/float64(len(all)))
	sumVar := 0.0
	if sumRows > 0 {
		sumVar = math.Max(0, h2Acc-hAcc*hAcc/sumRows)
	}
	z, _ := stats.ZScore(e.confidence())
	dsum, _ = naiveSums(col, all)
	return Estimate{Value: cAcc, CI: z * math.Sqrt(countVar)}, Estimate{Value: hAcc, CI: z * math.Sqrt(sumVar)}, countTrue(all), dsum, nil
}

// naiveGroups evaluates GROUP BY attr per distinct value by row scan; the
// complement sum of a group is the row-order column total minus its sum.
func naiveGroups(e *Estimator, rel *relation.Relation, tr transcript, attr, agg string) {
	dom, err := rel.Domain(attr)
	if err != nil {
		panic(err)
	}
	col := rel.MustNumeric(agg)
	for _, val := range dom {
		c, err := naiveCount(e, rel, Eq(attr, val))
		tr.est("group-count/"+val, c, err)
	}
	mu, err := stats.Mean(col)
	if err != nil {
		tr.put("group-sum", err)
		tr.put("group-avg", err)
		return
	}
	v, _ := stats.Variance(col)
	avgs := 0
	for _, val := range dom {
		ch, _ := invertible(e.channel(Eq(attr, val)))
		m, _ := naiveMatch(rel, Eq(attr, val))
		hp, _ := naiveSums(col, m)
		h, err := e.sumEstimate(ch, hp, naiveTotal(col)-hp, countTrue(m), float64(rel.NumRows()), mu, v)
		tr.est("group-sum/"+val, h, err)
		// avg: the same estimators over the rows with a non-NaN cell.
		cn, sn := nonNaNCounts(col, m)
		h, _ = e.sumEstimate(ch, hp, naiveTotal(col)-hp, cn, sn, mu, v)
		c, _ := e.countEstimate(ch, cn, sn)
		if c.Value != 0 {
			r := h.Value / c.Value
			tr.est("group-avg/"+val, Estimate{Value: r, CI: ratioCI(r, h, c)}, nil)
			avgs++
		}
	}
	if avgs == 0 {
		tr.put("group-avg", errors.New("no nonzero group"))
	}
}

// naiveBins evaluates GROUP BY bin(attr) by row scan.
func naiveBins(e *Estimator, rel *relation.Relation, tr transcript, attr, agg string) {
	edges := e.Meta.Numeric[attr].BinEdges()
	xs, ys := rel.MustNumeric(attr), rel.MustNumeric(agg)
	nb := len(edges) - 1
	n, sums, sumsqs := make([]int, nb), make([]float64, nb), make([]float64, nb)
	total := 0
	for i, x := range xs {
		if math.IsNaN(x) || math.IsNaN(ys[i]) {
			continue
		}
		k := searchBin(edges, x)
		n[k]++
		sums[k] += ys[i]
		sumsqs[k] += ys[i] * ys[i]
		total++
	}
	z, _ := stats.ZScore(e.confidence())
	avgs := 0
	for k := range n {
		label := binLabel(edges, k)
		countCI := 0.0
		if total > 0 {
			p := float64(n[k]) / float64(total)
			countCI = z * math.Sqrt(float64(total)*p*(1-p))
		}
		tr.est("bin-count/"+label, Estimate{Value: float64(n[k]), CI: countCI}, nil)
		ci, mu, v := 0.0, 0.0, 0.0
		if n[k] > 0 {
			nk := float64(n[k])
			mu = sums[k] / nk
			v = math.Max(0, sumsqs[k]/nk-mu*mu)
			ci = z * math.Sqrt(nk*v)
			tr.est("bin-avg/"+label, Estimate{Value: mu, CI: z * math.Sqrt(v/nk)}, nil)
			avgs++
		}
		tr.est("bin-sum/"+label, Estimate{Value: sums[k], CI: ci}, nil)
	}
	if avgs == 0 {
		tr.put("bin-avg", errors.New("no bin"))
	}
}

// naiveScalars puts the reference count, sum and avg under predicate p,
// corrected and Direct, at key suffix k.
func naiveScalars(e *Estimator, rel *relation.Relation, tr transcript, k string, p Predicate) {
	c, err := naiveCount(e, rel, p)
	tr.est("count"+k, c, err)
	s, err := naiveSum(e, rel, "x", p)
	tr.est("sum"+k, s, err)
	a, err := naiveAvg(e, rel, "x", p)
	tr.est("avg"+k, a, err)
	s, err = naiveSumFP(e, rel, "x", p)
	tr.est("sumfp"+k, s, err)
	m, err := naiveMatchCol(rel, p)
	if err != nil {
		tr.put("dcount"+k, err)
		tr.put("dsum"+k, err)
		tr.put("davg"+k, err)
		return
	}
	tr.put("dcount"+k, nil, countTrue(m))
	hp, _ := naiveSums(rel.MustNumeric("x"), m)
	tr.put("dsum"+k, nil, hp)
	if c, _ := nonNaNCounts(rel.MustNumeric("x"), m); c == 0 {
		tr.put("davg"+k, errors.New("no rows"))
	} else {
		tr.put("davg"+k, nil, hp/c)
	}
}

// naiveTotals puts the reference whole-column count, sum and avg at key
// suffix k: the Direct values, which need no correction, so the corrected
// and Direct keys agree and the ablation's sum is the plain sum.
func naiveTotals(e *Estimator, rel *relation.Relation, tr transcript, k string) {
	col := rel.MustNumeric("x")
	s := float64(rel.NumRows())
	tr.est("count"+k, Estimate{Value: s}, nil)
	tr.put("dcount"+k, nil, s)
	v, err := stats.Variance(col)
	if err != nil {
		for _, f := range []string{"sum", "avg", "sumfp", "dsum", "davg"} {
			tr.put(f+k, err)
		}
		return
	}
	mu, _ := stats.Mean(col)
	z, _ := stats.ZScore(e.confidence())
	sum := Estimate{Value: naiveTotal(col), CI: z * math.Sqrt(s*v)}
	tr.est("sum"+k, sum, nil)
	tr.est("sumfp"+k, sum, nil)
	tr.put("dsum"+k, nil, sum.Value)
	_, n := nonNaNCounts(col, make([]bool, len(col)))
	tr.est("avg"+k, Estimate{Value: mu, CI: z * math.Sqrt(v/n)}, nil)
	tr.put("davg"+k, nil, mu)
}

// naiveTranscript is residentTranscript computed by the reference, less the
// conjunction averages.
func naiveTranscript(e *Estimator, rel *relation.Relation, preds []Predicate) transcript {
	tr := transcript{}
	for i, p := range preds {
		k := fmt.Sprintf("/p%d", i)
		if p.isTotal() {
			naiveTotals(e, rel, tr, k)
		} else {
			naiveScalars(e, rel, tr, k, p)
		}
		for _, q := range residentQs {
			qk := fmt.Sprintf("%v%s", q, k)
			v, err := naivePercentile(e, rel, "x", p, q)
			tr.est("quantile/"+qk, v, err)
			d, derr := naivePercentile(e.Nominal(), rel, "x", p, q)
			tr.put("dquantile/"+qk, derr, d.Value)
			if q == 0.5 {
				tr.est("median"+k, v, err)
			}
		}
		v, err := naiveVar(e, rel, "x", p)
		tr.est("var"+k, v, err)
		if err != nil {
			tr.put("std"+k, err)
			tr.put("dvar"+k, err)
		} else {
			sd := math.Sqrt(v.Value)
			ci := 0.0
			if sd > 0 {
				ci = v.CI / (2 * sd)
			}
			tr.put("std"+k, nil, sd, ci)
			vals, _ := matchedValues(rel, "x", p)
			raw, _ := stats.Variance(vals)
			tr.put("dvar"+k, nil, raw)
		}
		for _, conj := range residentConjs(p) {
			ck := fmt.Sprintf("%s/%d", k, len(conj))
			cc, cs, dc, ds, err := naiveConj(e, rel, "x", conj)
			tr.est("conj-count"+ck, cc, err)
			tr.est("conj-sum"+ck, cs, err)
			tr.put("dconj-count"+ck, err, dc)
			tr.put("dconj-sum"+ck, err, ds)
		}
	}
	naiveGroups(e, rel, tr, "cat", "x")
	naiveBins(e, rel, tr, "x", "x")
	return tr
}

// reassociated reports whether a key's value may differ from the row-order
// reference by summation re-association: predicate sums, averages and
// variances fold per-code sums and central moments in code order, and
// conjunctions fold per joint cell.
func reassociated(key string) bool {
	for _, f := range []string{"sum/", "avg/", "sumfp/", "dsum/", "davg/", "var/", "std/", "dvar/", "conj-", "dconj-sum/"} {
		if strings.HasPrefix(key, f) {
			return true
		}
	}
	return false
}

// tolerance is how far an estimator transcript may be from the row-order
// reference. The zero tolerance demands identical bits and error texts.
type tolerance struct {
	rel   float64 // relative tolerance on re-associated keys
	scale float64 // floor of the magnitude rel applies to
	// varScale floors the magnitude of a conjunction's squared interval: the
	// interval is the square root of a variance that may cancel to rounding
	// residue, so it is compared squared, on the scale it cancels from.
	varScale float64
	// momentScale floors the magnitude of var's squared interval, the square
	// root of z²·(m4 − m2²)/n, which cancels to rounding residue when the
	// matched cells take two values.
	momentScale float64
}

// within reports whether value i of key k may read got[i] where the
// reference reads want[i].
func (tol tolerance) within(k string, i int, got, want []float64) bool {
	if tol.rel == 0 || !reassociated(k) {
		return false
	}
	a, b, sc := got[i], want[i], tol.scale
	if i == 1 {
		switch {
		case strings.HasPrefix(k, "conj-"):
			a, b, sc = a*a, b*b, tol.varScale
		case strings.HasPrefix(k, "std/"):
			// std's interval is var's divided by 2·std: compare the var
			// interval it came from.
			a, b = 2*got[0]*a, 2*want[0]*b
			fallthrough
		case strings.HasPrefix(k, "var/"):
			a, b, sc = a*a, b*b, tol.momentScale
		}
	}
	return math.Abs(a-b) <= tol.rel*math.Max(math.Max(math.Abs(a), math.Abs(b)), sc)
}

// diffTranscripts reports the first keys on which got and want differ by
// more than tol allows. Error texts are compared when exactErrs is set.
func diffTranscripts(got, want transcript, exactErrs bool, tol tolerance) []string {
	keys := map[string]bool{}
	for k := range got {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	var diffs []string
	for k := range keys {
		g, okg := got[k]
		w, okw := want[k]
		switch {
		case tol.rel > 0 && strings.HasPrefix(k, "conj-avg"):
			// The reference has none: an average is derived from the
			// conjunction's count and sum (checkConjAvgs), and ill-conditioned
			// wherever the count nearly cancels.
		case !okg || !okw:
			diffs = append(diffs, fmt.Sprintf("%s: present %v vs %v (%+v vs %+v)", k, okg, okw, g, w))
		case (g.err == "") != (w.err == "") || (exactErrs && g.err != w.err):
			diffs = append(diffs, fmt.Sprintf("%s: error %q vs %q", k, g.err, w.err))
		case len(g.vals) != len(w.vals):
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", k, g.vals, w.vals))
		default:
			for i := range g.vals {
				a, b := g.vals[i], w.vals[i]
				if math.Float64bits(a) == math.Float64bits(b) || tol.within(k, i, g.vals, w.vals) {
					continue
				}
				diffs = append(diffs, fmt.Sprintf("%s[%d]: %v (%x) vs %v (%x)", k, i, a, math.Float64bits(a), b, math.Float64bits(b)))
			}
		}
	}
	sort.Strings(diffs)
	if len(diffs) > 8 {
		diffs = diffs[:8]
	}
	return diffs
}

// checkResident runs one random relation through all four configurations,
// the naive reference, and the statistics fold.
func checkResident(t *testing.T, rng *rand.Rand, rows, maxDomain int) {
	t.Helper()
	rel, meta := randomResident(rng, rows, maxDomain)
	preds := residentPreds(rng, rel)
	csvRel, colRel := loadTwins(t, rel)

	want := residentTranscript(&Estimator{Meta: meta}, csvRel, preds)
	checkConjAvgs(t, want)
	configs := []struct {
		name string
		e    *Estimator
		rel  *relation.Relation
	}{
		{"col", &Estimator{Meta: meta}, colRel},
		{"csv/cached", &Estimator{Meta: meta, Cache: NewChannelCache()}, csvRel},
		{"col/cached", &Estimator{Meta: meta, Cache: NewChannelCache()}, colRel},
	}
	for _, c := range configs {
		for pass := 0; pass < 2; pass++ { // a cached estimator's second pass is warm
			if d := diffTranscripts(residentTranscript(c.e, c.rel, preds), want, true, tolerance{}); len(d) > 0 {
				t.Fatalf("%s pass %d differs from csv uncached:\n%s", c.name, pass, strings.Join(d, "\n"))
			}
		}
	}

	scale, maxAbs := 0.0, 0.0
	for _, x := range csvRel.MustNumeric("x") {
		if !math.IsNaN(x) {
			scale += math.Abs(x)
			maxAbs = math.Max(maxAbs, math.Abs(x))
		}
	}
	scale *= 4 // the channel inversion divides by 1-p >= 1/2, twice for avg
	// A conjunction weighs a row by at most three factors of at most 2, so
	// its variances cancel from Σw²·x² <= scale² or Σw² <= 64·rows. var's
	// squared interval cancels from z²·m4 <= 4·(2·max|x|)⁴ (z² < 4 at the
	// default 95%).
	tol := tolerance{rel: 1e-12, scale: scale, varScale: scale*scale + 64*float64(csvRel.NumRows()),
		momentScale: 64 * math.Pow(maxAbs, 4)}
	ref := naiveTranscript(&Estimator{Meta: meta}, csvRel, preds)
	if d := diffTranscripts(want, ref, false, tol); len(d) > 0 {
		t.Fatalf("resident estimators differ from the row-scan reference:\n%s", strings.Join(d, "\n"))
	}

	checkStatsFold(t, rng, csvRel, preds)
}

// nonNaNRows returns the rows of rel whose agg cell is non-NaN.
func nonNaNRows(rel *relation.Relation, agg string) *relation.Relation {
	keep := rel.MustNumeric(agg)
	nums, strs := map[string][]float64{}, map[string][]string{}
	for _, c := range rel.Schema().Columns() {
		if c.Kind == relation.Numeric {
			nums[c.Name] = []float64{}
		} else {
			strs[c.Name] = []string{}
		}
	}
	for i, y := range keep {
		if math.IsNaN(y) {
			continue
		}
		for name := range nums {
			nums[name] = append(nums[name], rel.MustNumeric(name)[i])
		}
		for name := range strs {
			strs[name] = append(strs[name], rel.MustDiscrete(name)[i])
		}
	}
	out, err := relation.FromColumns(rel.Schema(), nums, strs)
	if err != nil {
		panic(err)
	}
	return out
}

// checkConjAvgs requires every conjunction average in tr to be the ratio of
// the transcript's own conjunction sum and its count over the rows with a
// non-NaN cell (avg skips NULLs), bit for bit, or to fail as they do.
func checkConjAvgs(t *testing.T, tr transcript) {
	t.Helper()
	for k, got := range tr {
		rest, ok := strings.CutPrefix(k, "conj-avg/")
		if !ok {
			continue
		}
		c, h := tr["conj-avgcount/"+rest], tr["conj-sum/"+rest]
		want := transcript{}
		switch {
		case h.err != "":
			want[k] = h
		case c.err != "" || c.vals[0] == 0: // no row has a non-NaN cell, or the count cancels
			want.put(k, fmt.Errorf("%w for the conjunction", ErrZeroEstimatedCount))
		default:
			r := h.vals[0] / c.vals[0]
			want.est(k, Estimate{Value: r, CI: ratioCI(r, Estimate{Value: h.vals[0], CI: h.vals[1]}, Estimate{Value: c.vals[0], CI: c.vals[1]})}, nil)
		}
		if d := diffTranscripts(transcript{k: got}, want, true, tolerance{}); len(d) > 0 {
			t.Fatalf("AvgConj is not the ratio of SumConj and CountConj: %s", d[0])
		}
	}
}

// checkStatsFold requires the resident and statistics per-value tables of
// (cat, x) to hold the same bits — domain, counts, per-value sums and the
// row-order column total — so every cat predicate folds to bit-identical
// matched and complement sums on both sources.
func checkStatsFold(t *testing.T, rng *rand.Rand, rel *relation.Relation, preds []Predicate) {
	t.Helper()
	st, err := CollectStatisticsWith(relation.NewSliceIterator(rel, 1+rng.Intn(7)), CollectOpts{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := resident{rel}.valueTable(nil, "cat", "x")
	if err != nil {
		t.Fatal(err)
	}
	stt, err := st.valueTable(nil, "cat", "x")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rt.ix.Domain, stt.ix.Domain) || !slices.Equal(rt.ix.Counts, stt.ix.Counts) ||
		rt.rows != stt.rows || rt.nonNaN != stt.nonNaN {
		t.Fatalf("tables differ: %v %v %v %d vs %v %v %v %d", rt.ix.Domain, rt.ix.Counts, rt.rows, rt.nonNaN,
			stt.ix.Domain, stt.ix.Counts, stt.rows, stt.nonNaN)
	}
	bits := func(xs ...float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	if !slices.Equal(bits(append(rt.sums, rt.total)...), bits(append(stt.sums, stt.total)...)) {
		t.Fatalf("sums differ: %v %v vs %v %v", rt.sums, rt.total, stt.sums, stt.total)
	}
	for _, p := range preds {
		if p.Attr != "cat" {
			continue
		}
		m, c := rt.fold(compileSelection(rt.ix, p))
		sm, sc := stt.fold(compileSelection(stt.ix, p))
		if math.Float64bits(m) != math.Float64bits(sm) || math.Float64bits(c) != math.Float64bits(sc) {
			t.Fatalf("%s: resident fold (%v, %v) != statistics (%v, %v)", p, m, c, sm, sc)
		}
	}
}

func TestResidentFoldMatchesStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		rel, _ := randomResident(rng, 1+rng.Intn(200), 12)
		checkStatsFold(t, rng, rel, residentPreds(rng, rel))
	}
}

func TestResidentFamiliesIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 300
	if testing.Short() {
		n = 40
	}
	for i := 0; i < n; i++ {
		checkResident(t, rng, 1+rng.Intn(48), 5)
	}
}

// FuzzResidentCacheIdentity drives checkResident from fuzzed seeds and
// shapes.
func FuzzResidentCacheIdentity(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(3))
	f.Add(int64(2), uint8(1), uint8(1))
	f.Add(int64(3), uint8(64), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, rows, domain uint8) {
		checkResident(t, rand.New(rand.NewSource(seed)), 1+int(rows)%64, 1+int(domain)%8)
	})
}

// Count, sum, avg, GROUP BY, binned GROUP BY, quantile and var are served
// from per-code tables (var from their central moments, quantile and binned
// count from their bin counts) and bin tables and pin no joint table. Conjunctions
// pin one joint table per (attribute set, column), however many distinct
// predicates they are asked under; they used to pin one rows/8-byte match
// bitset per distinct predicate.
func TestResidentAggregatesPinNoBitsets(t *testing.T) {
	rel := vectorRel(t, 500)
	catDom, _ := rel.Domain("cat")
	meta := &privacy.ViewMeta{
		Discrete: map[string]privacy.DiscreteMeta{
			"cat":   {Name: "cat", P: 0.2, Domain: catDom},
			"other": {Name: "other", P: 0.2, Domain: []string{"g0", "g1", "g2"}},
		},
		Numeric: map[string]privacy.NumericMeta{"x": {Name: "x", B: 1, Delta: 60, Lo: -30, Bins: 8}},
	}
	e := &Estimator{Meta: meta, Cache: NewChannelCache()}
	pred := In("cat", "v01", "v02")
	for pass := 0; pass < 2; pass++ {
		_, err1 := e.Count(rel, pred)
		_, err2 := e.Sum(rel, "x", pred)
		_, err3 := e.Avg(rel, "x", pred)
		_, err4 := e.GroupCounts(rel, "cat")
		_, err5 := e.GroupSums(rel, "cat", "x")
		_, err6 := e.GroupAvgs(rel, "cat", "x")
		_, err7 := e.GroupBinCounts(rel, "x")
		_, err8 := e.GroupBinSums(rel, "x", "x")
		_, err9 := e.GroupBinAvgs(rel, "x", "x")
		_, err10 := e.Median(rel, "x", pred)
		_, err11 := e.Var(rel, "x", pred)
		_, err12 := e.Sum(rel, "x", Predicate{})
		if err := errors.Join(err1, err2, err3, err4, err5, err6, err7, err8, err9, err10, err11, err12); err != nil {
			t.Fatal(err)
		}
		if _, tables := e.Cache.Len(); tables != 0 {
			t.Fatalf("pass %d: %d joint tables pinned by non-conjunction aggregates", pass, tables)
		}
	}
	st := e.Cache.Stats()
	for _, c := range []struct {
		k                     kind
		entries, misses, hits int64
	}{
		{kindPerCode, 2, 2, 14}, // (cat, x) and the column alone
		{kindBin, 1, 1, 3},
	} {
		if got := st[c.k]; got.Entries != c.entries || got.Misses != c.misses || got.Hits != c.hits {
			t.Errorf("%s: %+v, want %d entries, %d misses, %d hits", kindNames[c.k], got, c.entries, c.misses, c.hits)
		}
	}

	nonChannel := func() (n int64) {
		for _, k := range e.Cache.Stats()[kindChannel+1:] {
			n += k.Entries
		}
		return n
	}
	before := nonChannel()
	for i := 0; i < 50; i++ { // 50 distinct (cat, other) predicate pairs, in either order
		conj := []Predicate{In("cat", catDom[i%20], "v19"), Eq("other", fmt.Sprintf("g%d", i/20))}
		if i%2 == 1 {
			conj[0], conj[1] = conj[1], conj[0]
		}
		_, err1 := e.CountConj(rel, conj...)
		_, err2 := e.SumConj(rel, "x", conj...)
		_, err3 := e.AvgConj(rel, "x", conj...)
		if err := errors.Join(err1, err2, err3); err != nil {
			t.Fatal(err)
		}
	}
	if _, tables := e.Cache.Len(); tables != 2 {
		t.Fatalf("conjunctions pinned %d joint tables, want one per column, x or none (2)", tables)
	}
	if got := nonChannel(); got != before+2 {
		t.Fatalf("non-channel entries grew from %d to %d over 50 conjunctions, want +2", before, got)
	}
	if j := e.Cache.Stats()[kindJoint]; j.Kind != "joint" || j.Misses != 2 || j.Hits != 148 {
		t.Fatalf("joint: %+v, want 2 misses and 148 hits", j)
	}
}

// Concurrent misses on one table build it once, and concurrent first
// quantiles over statistics build their memoized bin table to the same bits
// as the resident one.
func TestCacheBuildsOnceUnderConcurrentMisses(t *testing.T) {
	rel := vectorRel(t, 2000)
	catDom, _ := rel.Domain("cat")
	e := &Estimator{Meta: &privacy.ViewMeta{
		Discrete: map[string]privacy.DiscreteMeta{"cat": {Name: "cat", P: 0.2, Domain: catDom}},
		Numeric:  map[string]privacy.NumericMeta{"x": {Name: "x", B: 1, Delta: 60, Lo: -30, Bins: 8}},
	}, Cache: NewChannelCache()}
	sst := collectWith(t, rel, e.Meta, nil)
	var wg sync.WaitGroup
	vars := make([]Estimate, 8)
	medians := make([][2]Estimate, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := e.Sum(rel, "x", Eq("cat", "v01")); err != nil {
				t.Error(err)
			}
			var err error
			if medians[g][0], err = e.Median(rel, "x", Eq("cat", "v01")); err != nil {
				t.Error(err)
			}
			if medians[g][1], err = e.MedianStats(sst, "x", Eq("cat", "v01")); err != nil {
				t.Error(err)
			}
			if vars[g], err = e.Var(rel, "x", In("cat", "v01", "v02")); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	st := e.Cache.Stats()
	for _, c := range []struct {
		k            kind
		misses, hits int64
	}{{kindPerCode, 1, 23}} { // Sum, Median and Var share the per-code table
		if st[c.k].Misses != c.misses || st[c.k].Hits != c.hits {
			t.Errorf("%s: %d misses, %d hits; want %d and %d", kindNames[c.k], st[c.k].Misses, st[c.k].Hits, c.misses, c.hits)
		}
	}
	for g, v := range vars {
		if v != vars[0] || medians[g] != [2]Estimate{medians[0][0], medians[0][0]} {
			t.Fatalf("goroutine %d: var %v, medians %v; goroutine 0: %v, %v", g, v, medians[g], vars[0], medians[0])
		}
	}
}

// A discrete column rewrite replaces its dictionary, so the per-code table
// built against the old one is rebuilt, never served stale.
func TestCachedTablesFollowDiscreteRewrite(t *testing.T) {
	rel := catValRel(t, []string{"a", "a", "b", "c"}, []float64{1, 2, 3, 4})
	meta := metaFor(0.25, "a", "b", "c")
	cached := &Estimator{Meta: meta, Cache: NewChannelCache()}
	if _, err := cached.Sum(rel, "value", Eq("category", "a")); err != nil {
		t.Fatal(err)
	}
	if err := rel.SetDiscrete("category", []string{"a", "a", "b", "a"}); err != nil {
		t.Fatal(err)
	}
	got, err1 := cached.Sum(rel, "value", Eq("category", "a"))
	want, err2 := (&Estimator{Meta: meta}).Sum(rel, "value", Eq("category", "a"))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if got != want {
		t.Fatalf("cached Sum after rewrite = %+v, want %+v", got, want)
	}
}

// A joint table is rebuilt when any of its dictionaries is replaced, not
// only the first attribute's.
func TestCachedJointFollowsDiscreteRewrite(t *testing.T) {
	rel := vectorRel(t, 200)
	catDom, _ := rel.Domain("cat")
	meta := &privacy.ViewMeta{Discrete: map[string]privacy.DiscreteMeta{
		"cat":   {Name: "cat", P: 0.2, Domain: catDom},
		"other": {Name: "other", P: 0.2, Domain: []string{"g0", "g1", "g2", "g9"}},
	}}
	cached := &Estimator{Meta: meta, Cache: NewChannelCache()}
	conj := []Predicate{In("cat", "v01", "v02"), Eq("other", "g9")}
	if _, err := cached.CountConj(rel, conj...); err != nil {
		t.Fatal(err)
	}
	other := rel.MustDiscrete("other")
	for i := 0; i < 50; i++ {
		other[i] = "g9"
	}
	if err := rel.SetDiscrete("other", other); err != nil {
		t.Fatal(err)
	}
	got, err1 := cached.CountConj(rel, conj...)
	want, err2 := (&Estimator{Meta: meta}).CountConj(rel, conj...)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if got != want {
		t.Fatalf("cached CountConj after rewrite = %+v, want %+v", got, want)
	}
}

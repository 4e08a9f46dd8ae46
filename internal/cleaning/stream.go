package cleaning

import (
	"encoding/csv"
	"fmt"
	"io"
	"time"

	"privateclean/internal/csvio"
	"privateclean/internal/faults"
	"privateclean/internal/relation"
	"privateclean/internal/telemetry"
)

// The cleaning engine runs compiled steps over windows it reopens once per
// pass, so the relation need never be resident. The result equals cleaning
// the whole relation op after op: each op reads one row at a time plus, for
// a global op (Merge, the repairs), a summary its own pass folds from every
// window as the earlier steps leave it (k global ops, k summary passes and
// one write pass); and each finish runs once, in op order, after the write
// pass, replaying a value op's function on the graph or applying a row-level
// op's transition counts, whose per-window sums equal the one-shot counts.

// StreamResult summarizes a streaming clean.
type StreamResult struct {
	// Rows is the number of cleaned rows written; Schema the post-cleaning
	// schema (it can gain attributes via Extract).
	Rows   int
	Schema relation.Schema
}

// StreamApply applies ops to the windows open yields, writing the cleaned
// rows as CSV (csvio.Write conventions, header included) to w. open is
// called once per pass and must yield the same rows each time, such as a
// csvio.ChunkIterator over a profiled file (it fails with ErrBadInput once
// the file no longer holds the profiled rows; io.Closer iterators are
// closed after their pass). ctx.Domains, the profile's domains, give the
// dirty domain of an attribute ctx.Meta lacks; ctx.Rel must be nil.
func StreamApply(ctx *Context, open func() (relation.Iterator, error), w io.Writer, ops ...Op) (*StreamResult, error) {
	cw := csv.NewWriter(w)
	res, err := run(ctx, open, func(win *relation.Relation, first bool) error {
		if err := csvio.WriteRows(cw, win, first); err != nil {
			return faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("cleaning: %w", err))
		}
		return nil
	}, ops)
	if err != nil {
		return nil, err
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return nil, faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("cleaning: %w", err))
	}
	return res, nil
}

// run compiles ops and drives the engine: a summary pass per global step, in
// op order, then the write pass, which hands every cleaned window to sink,
// then each step's finish.
func run(ctx *Context, open func() (relation.Iterator, error), sink func(win *relation.Relation, first bool) error, ops []Op) (*StreamResult, error) {
	tel := ctx.telemetry()
	steps := make([]*step, len(ops))
	for i, op := range ops {
		s, err := op.compile(ctx)
		if err != nil {
			return nil, failed(tel, op, err)
		}
		s.op = op
		steps[i] = s
	}
	for i, s := range steps {
		if s.observe != nil {
			built, err := summarize(ctx, tel, open, steps[:i], s)
			if err != nil {
				return nil, err
			}
			steps[i] = built
		}
	}
	// A resident run's graphs exist before the write pass rewrites the
	// relation, so fallback dirty domains are pre-cleaning ones.
	for _, s := range steps {
		for _, a := range s.reads {
			if ctx.Rel != nil && ctx.Rel.Schema().Has(a) {
				if _, err := ctx.graphFor(a); err != nil {
					return nil, failed(tel, s.op, err)
				}
			}
		}
	}

	res, n := &StreamResult{}, 0
	rows, err := eachWindow(open, func(win *relation.Relation) error {
		if err := applyWindow(ctx, tel, steps, win); err != nil {
			return err
		}
		if n == 0 {
			res.Schema = win.Schema()
		} else if !win.Schema().Equal(res.Schema) {
			return faults.Errorf(faults.ErrInternal,
				"cleaning: window %d schema %q differs from first window %q (non-deterministic op?)",
				n, win.Schema(), res.Schema)
		}
		n++
		return sink(win, n == 1)
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	for _, s := range steps {
		if err := s.finish(ctx); err != nil {
			return nil, failed(tel, s.op, err)
		}
		observe(tel, s.op, s.wall)
		tel.Log.Debug("cleaning op applied", "kind", telemetry.OpKind(s.op.Name()), "rows", rows)
	}
	return res, nil
}

// summarize is global step s's summary pass: each window, rewritten by the
// steps before s (on a copy, counting no transitions), is folded into s's
// summary, and s is then built from it. The pass is s's wall time.
func summarize(ctx *Context, tel *telemetry.Set, open func() (relation.Iterator, error), before []*step, s *step) (*step, error) {
	// Only the op's kind is vocabulary-safe; its full name embeds attribute
	// names and spec fragments and passes the redaction boundary.
	sp := tel.Trace.StartSpan(ctx.Span, "clean_summary",
		telemetry.A("kind", telemetry.OpKind(s.op.Name())), telemetry.A("op", s.op.Name()))
	defer sp.End()
	start := time.Now()
	rows, err := eachWindow(open, func(win *relation.Relation) error {
		if len(before) > 0 {
			win = win.Clone() // Apply's window is the resident relation itself
		}
		for _, b := range before {
			if err := b.apply(win, false); err != nil {
				return failed(tel, b.op, err)
			}
		}
		if err := s.observe(win); err != nil {
			return failed(tel, s.op, err)
		}
		return nil
	})
	sp.Set("rows", rows)
	if err != nil {
		sp.Set("err", err)
		return nil, err
	}
	built := s.build()
	built.op, built.wall = s.op, time.Since(start)
	return built, nil
}

// eachWindow runs fn over every window of a fresh pass over open's source
// and returns the rows seen. No windows means one empty window of the
// schema, so an empty input still shapes the output schema (Extract) and
// surfaces op errors.
func eachWindow(open func() (relation.Iterator, error), fn func(win *relation.Relation) error) (int, error) {
	it, err := open()
	if err != nil {
		return 0, err
	}
	if c, ok := it.(io.Closer); ok {
		defer c.Close()
	}
	rows, n := 0, 0
	for ; ; n++ {
		win, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return rows, err
		}
		if err := fn(win); err != nil {
			return rows, err
		}
		rows += win.NumRows()
	}
	if n == 0 {
		return 0, fn(relation.New(it.Schema()))
	}
	return rows, nil
}

// applyWindow runs every step over one window of the write pass,
// attributing wall time to the steps and classifying failures.
func applyWindow(ctx *Context, tel *telemetry.Set, steps []*step, win *relation.Relation) error {
	sp := tel.Trace.StartSpan(ctx.Span, "clean_window", telemetry.A("rows", win.NumRows()))
	defer sp.End()
	for _, s := range steps {
		start := time.Now()
		err := s.apply(win, true)
		s.wall += time.Since(start)
		if err != nil {
			sp.Set("err", err)
			return failed(tel, s.op, err)
		}
	}
	return nil
}

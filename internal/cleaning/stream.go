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

// Out-of-core cleaning. StreamApply runs the steps Apply runs, over the
// windows of a relation.Iterator instead of the one resident window,
// writing cleaned rows to an io.Writer as it goes, so the full relation is
// never resident. The written bytes equal csvio.Write over the one-shot-
// cleaned relation, and the provenance store ends in the same state as a
// one-shot Apply, because:
//
//   - every streamable op is local: its output for a row depends only on
//     that row's values, so per-window application composes to the same
//     relation;
//   - each step's finish runs once, in op order, after the data pass — as
//     Apply runs it once after its single window: a value op replays its
//     function on the graph, and a row-level op (TransformRows) applies
//     transition counts, whose per-window sums equal the one-shot counts.
//
// Ops that need a global view of the data cannot stream: Merge reads the
// attribute's full domain, and the repair cleaners (FDRepair, FDImpute,
// MDRepair) vote over all rows. With no resident relation they refuse to
// compile, so StreamApply rejects them up front with a faults.ErrBadInput
// error naming the op, before any output is written.

// StreamResult summarizes a streaming clean.
type StreamResult struct {
	// Rows is the number of cleaned rows written; Schema the post-cleaning
	// schema (it can gain attributes via Extract).
	Rows   int
	Schema relation.Schema
}

// StreamApply applies ops to every window of it, writing the cleaned rows as
// CSV (csvio.Write conventions, header included) to w. ctx.Rel is ignored;
// ctx.Prov, ctx.Meta, ctx.Tel, and ctx.Span play their usual roles. See the
// comment above for the equivalence argument and the list of non-streamable
// ops.
func StreamApply(ctx *Context, it relation.Iterator, w io.Writer, ops ...Op) (*StreamResult, error) {
	// No resident relation: dirty domains come from the metadata alone.
	sctx := *ctx
	sctx.Rel = nil
	ctx = &sctx
	tel := ctx.telemetry()
	steps := make([]*step, len(ops))
	for i, op := range ops {
		s, err := compile(ctx, op)
		if err != nil {
			return nil, failed(tel, op, err)
		}
		steps[i] = s
	}

	cw := csv.NewWriter(w)
	var outSchema relation.Schema
	var record []string
	rows := 0
	windows := 0
	for {
		win, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := applyWindow(ctx, tel, steps, win); err != nil {
			return nil, err
		}
		if windows == 0 {
			outSchema = win.Schema()
			record = make([]string, outSchema.Len())
			if err := cw.Write(csvHeader(outSchema)); err != nil {
				return nil, faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("cleaning: %w", err))
			}
		} else if win.Schema().String() != outSchema.String() {
			return nil, faults.Errorf(faults.ErrInternal,
				"cleaning: window %d schema %q differs from first window %q (non-deterministic op?)",
				windows, win.Schema(), outSchema)
		}
		if err := writeWindow(cw, win, record); err != nil {
			return nil, err
		}
		rows += win.NumRows()
		windows++
	}
	if windows == 0 {
		// No windows at all: clean an empty relation so Extract still shapes
		// the header, exactly as a one-shot Apply over zero rows would.
		empty := relation.New(it.Schema())
		if err := applyWindow(ctx, tel, steps, empty); err != nil {
			return nil, err
		}
		outSchema = empty.Schema()
		if err := cw.Write(csvHeader(outSchema)); err != nil {
			return nil, faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("cleaning: %w", err))
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return nil, faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("cleaning: %w", err))
	}

	// Data pass done; evolve provenance once per op, in op order.
	for _, s := range steps {
		if err := s.finish(ctx); err != nil {
			return nil, failed(tel, s.op, err)
		}
	}
	// Per-op telemetry mirrors Apply: one count and one (accumulated) timing
	// observation per op, not per window.
	for _, s := range steps {
		observe(tel, s.op, s.wall)
		tel.Log.Debug("cleaning op applied", "kind", telemetry.OpKind(s.op.Name()), "rows", rows, "stream", true)
	}
	return &StreamResult{Rows: rows, Schema: outSchema}, nil
}

// applyWindow runs every step over one window, attributing wall time to the
// steps and classifying failures like Apply does.
func applyWindow(ctx *Context, tel *telemetry.Set, steps []*step, win *relation.Relation) error {
	sp := tel.Trace.StartSpan(ctx.Span, "clean_window", telemetry.A("rows", win.NumRows()))
	defer sp.End()
	for _, s := range steps {
		start := time.Now()
		err := s.apply(win)
		s.wall += time.Since(start)
		if err != nil {
			sp.Set("err", err)
			return failed(tel, s.op, err)
		}
	}
	return nil
}

// csvHeader renders the header record for a schema.
func csvHeader(schema relation.Schema) []string {
	cols := schema.Columns()
	header := make([]string, len(cols))
	for i, c := range cols {
		header[i] = c.Name
	}
	return header
}

// writeWindow appends one cleaned window's rows with csvio.Write's cell
// conventions.
func writeWindow(cw *csv.Writer, win *relation.Relation, record []string) error {
	cols := win.Schema().Columns()
	for i := 0; i < win.NumRows(); i++ {
		if err := csvio.FormatRow(win, cols, i, record); err != nil {
			return err
		}
		if err := cw.Write(record); err != nil {
			return faults.Wrap(faults.ErrPartialWrite, fmt.Errorf("cleaning: %w", err))
		}
	}
	return nil
}

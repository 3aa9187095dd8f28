package db

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/frame"
)

// aggPlan is a validated aggregation query: its grouping and aggregate
// input columns resolved against the base table.
type aggPlan struct {
	stmt      *SelectStmt
	groupCols []*frame.Column
	aggCols   []*frame.Column // nil for COUNT(*)
}

// planAggregation resolves an aggregation query's columns and checks its
// output schema and ORDER BY keys, so running it cannot fail.
func planAggregation(stmt *SelectStmt, base *frame.Frame) (*aggPlan, error) {
	p := &aggPlan{
		stmt:      stmt,
		groupCols: make([]*frame.Column, len(stmt.GroupBy)),
		aggCols:   make([]*frame.Column, len(stmt.Aggs)),
	}
	for i, name := range stmt.GroupBy {
		c, ok := base.Lookup(name)
		if !ok {
			return nil, evalErrorf("unknown column %q in GROUP BY", name)
		}
		p.groupCols[i] = c
	}
	for i, a := range stmt.Aggs {
		if a.Column == "" {
			if a.Func != "COUNT" {
				return nil, evalErrorf("%s requires a column", a.Func)
			}
			continue
		}
		c, ok := base.Lookup(a.Column)
		if !ok {
			return nil, evalErrorf("unknown column %q in %s()", a.Column, a.Func)
		}
		if c.Kind() != frame.Numeric && a.Func != "COUNT" && a.Func != "MIN" && a.Func != "MAX" {
			return nil, evalErrorf("%s() needs a numeric column, %q is %s", a.Func, a.Column, c.Kind())
		}
		p.aggCols[i] = c
	}
	// The empty output frame checks the output column names; ORDER BY keys
	// may name group columns or aggregate output names.
	empty, err := p.output(stmt.Table).Build()
	if err != nil {
		return nil, err
	}
	if _, err := resolveOrder(empty, stmt.OrderBy); err != nil {
		return nil, err
	}
	return p, nil
}

// output declares the output frame's columns: grouping columns first, then
// aggregate i as column len(groupCols)+i.
func (p *aggPlan) output(name string) *frame.Builder {
	b := frame.NewBuilder(name)
	for _, c := range p.groupCols {
		if c.Kind() == frame.Numeric {
			b.AddNumeric(c.Name())
		} else {
			b.AddCategorical(c.Name())
		}
	}
	for i, a := range p.stmt.Aggs {
		if p.yieldsString(i) {
			b.AddCategorical(a.OutputName())
		} else {
			b.AddNumeric(a.OutputName())
		}
	}
	return b
}

// yieldsString reports whether aggregate i outputs strings: MIN and MAX over
// categorical columns do; everything else is numeric.
func (p *aggPlan) yieldsString(i int) bool {
	fn, c := p.stmt.Aggs[i].Func, p.aggCols[i]
	return (fn == "MIN" || fn == "MAX") && c != nil && c.Kind() == frame.Categorical
}

// rows runs the aggregation: group the selected rows by the GROUP BY
// columns (one global group when absent), evaluate each aggregate, then
// apply ORDER BY and LIMIT over the aggregated output.
func (p *aggPlan) rows(mask *frame.Bitmap) (*frame.Frame, error) {
	stmt := p.stmt
	type groupState struct {
		firstRow int
		accs     []*aggAccumulator
	}
	groups := make(map[string]*groupState)
	var order []string // group keys in first-seen order

	mask.ForEach(func(row int) {
		key := groupKey(p.groupCols, row)
		g, ok := groups[key]
		if !ok {
			g = &groupState{firstRow: row, accs: make([]*aggAccumulator, len(stmt.Aggs))}
			for i, a := range stmt.Aggs {
				g.accs[i] = newAggAccumulator(a.Func)
			}
			groups[key] = g
			order = append(order, key)
		}
		for i := range stmt.Aggs {
			g.accs[i].add(p.aggCols[i], row)
		}
	})

	b := p.output(stmt.Table)
	for _, key := range order {
		g := groups[key]
		for i, c := range p.groupCols {
			switch {
			case c.IsNull(g.firstRow):
				b.AppendNull(i)
			case c.Kind() == frame.Numeric:
				b.AppendFloat(i, c.Float(g.firstRow))
			default:
				b.AppendStr(i, c.Str(g.firstRow))
			}
		}
		for i := range stmt.Aggs {
			col := len(p.groupCols) + i
			num, str, isNull := g.accs[i].result()
			switch {
			case isNull:
				b.AppendNull(col)
			case p.yieldsString(i):
				b.AppendStr(col, str)
			default:
				b.AppendFloat(col, num)
			}
		}
	}
	out, err := b.Build()
	if err != nil {
		return nil, err
	}

	keys, err := resolveOrder(out, stmt.OrderBy)
	if err != nil {
		return nil, err
	}
	idx := make([]int, out.NumRows())
	for i := range idx {
		idx[i] = i
	}
	sortRows(idx, keys)
	if stmt.Limit >= 0 && stmt.Limit < len(idx) {
		idx = idx[:stmt.Limit]
	}
	if len(keys) == 0 && len(idx) == out.NumRows() {
		return out, nil
	}
	return materializeInOrder(out, idx)
}

// groupKey builds a hashable key from the grouping values of one row.
func groupKey(cols []*frame.Column, row int) string {
	if len(cols) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, c := range cols {
		if c.IsNull(row) {
			sb.WriteString("\x00N")
		} else if c.Kind() == frame.Numeric {
			fmt.Fprintf(&sb, "\x00%g", c.Float(row))
		} else {
			sb.WriteString("\x00")
			sb.WriteString(c.Str(row))
		}
	}
	return sb.String()
}

// aggAccumulator folds rows for one aggregate.
type aggAccumulator struct {
	fn    string
	count int
	sum   float64
	min   float64
	max   float64
	minS  string
	maxS  string
	isStr bool
	seen  bool
}

func newAggAccumulator(fn string) *aggAccumulator {
	return &aggAccumulator{fn: fn, min: math.Inf(1), max: math.Inf(-1)}
}

// add folds one row. col is nil only for COUNT(*).
func (a *aggAccumulator) add(col *frame.Column, row int) {
	if col == nil {
		a.count++
		return
	}
	if col.IsNull(row) {
		return // SQL semantics: aggregates skip NULLs
	}
	a.count++
	if col.Kind() == frame.Numeric {
		v := col.Float(row)
		a.sum += v
		if v < a.min {
			a.min = v
		}
		if v > a.max {
			a.max = v
		}
	} else {
		a.isStr = true
		s := col.Str(row)
		if !a.seen || s < a.minS {
			a.minS = s
		}
		if !a.seen || s > a.maxS {
			a.maxS = s
		}
	}
	a.seen = true
}

// result returns the aggregate value: a float, a string (categorical
// MIN/MAX), or NULL for empty inputs.
func (a *aggAccumulator) result() (num float64, str string, isNull bool) {
	switch a.fn {
	case "COUNT":
		return float64(a.count), "", false
	case "SUM":
		if a.count == 0 {
			return 0, "", true
		}
		return a.sum, "", false
	case "AVG":
		if a.count == 0 {
			return 0, "", true
		}
		return a.sum / float64(a.count), "", false
	case "MIN":
		if a.count == 0 {
			return 0, "", true
		}
		if a.isStr {
			return 0, a.minS, false
		}
		return a.min, "", false
	case "MAX":
		if a.count == 0 {
			return 0, "", true
		}
		if a.isStr {
			return 0, a.maxS, false
		}
		return a.max, "", false
	default:
		return 0, "", true
	}
}

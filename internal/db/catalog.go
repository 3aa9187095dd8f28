package db

import (
	"fmt"
	"sort"

	"repro/internal/frame"
)

// Catalog is the database: a set of named tables.
type Catalog struct {
	tables map[string]*frame.Frame
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*frame.Frame)}
}

// Register adds (or replaces) a table under the frame's own name.
func (c *Catalog) Register(f *frame.Frame) error {
	if f == nil {
		return fmt.Errorf("db: cannot register nil frame")
	}
	if f.Name() == "" {
		return fmt.Errorf("db: cannot register unnamed frame")
	}
	c.tables[f.Name()] = f
	return nil
}

// Unregister removes the named table, reporting whether it was registered.
func (c *Catalog) Unregister(name string) bool {
	if _, ok := c.tables[name]; !ok {
		return false
	}
	delete(c.tables, name)
	return true
}

// Table returns the named table.
func (c *Catalog) Table(name string) (*frame.Frame, bool) {
	f, ok := c.tables[name]
	return f, ok
}

// TableNames lists registered tables in sorted order.
func (c *Catalog) TableNames() []string {
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Result is the outcome of executing a SELECT.
type Result struct {
	// Stmt is the parsed statement.
	Stmt *SelectStmt
	// Base is the queried table.
	Base *frame.Frame
	// Mask is the WHERE selection over the base table, before ORDER BY and
	// LIMIT. This is the Cᴵ/Cᴼ split Ziggy consumes.
	Mask *frame.Bitmap
	// Rows is the materialized result: projected, ordered and limited. It
	// is nil in a Select result.
	Rows *frame.Frame
}

// Select parses sql, validates it against its table and computes the WHERE
// mask, building no result rows (Rows is nil). It rejects exactly the
// statements Query rejects, with the same errors, so a characterization
// never runs on a selection whose query would fail.
func (c *Catalog) Select(sql string) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	res, _, err := c.plan(stmt)
	return res, err
}

// Query parses and executes sql against the catalog.
func (c *Catalog) Query(sql string) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return c.Execute(stmt)
}

// Execute runs a parsed statement: the selection, then its materialized
// Rows.
func (c *Catalog) Execute(stmt *SelectStmt) (*Result, error) {
	res, m, err := c.plan(stmt)
	if err != nil {
		return nil, err
	}
	if res.Rows, err = m.rows(res.Mask); err != nil {
		return nil, err
	}
	return res, nil
}

// materializer builds the result rows of a validated statement from its
// selection mask.
type materializer interface {
	rows(mask *frame.Bitmap) (*frame.Frame, error)
}

// plan computes stmt's selection and validates the rest of the statement
// against the base table, returning the Result without Rows and the
// materializer that builds them. Every error a statement can raise is
// raised here.
func (c *Catalog) plan(stmt *SelectStmt) (*Result, materializer, error) {
	base, ok := c.tables[stmt.Table]
	if !ok {
		return nil, nil, evalErrorf("unknown table %q", stmt.Table)
	}

	// WHERE.
	var mask *frame.Bitmap
	if stmt.Where == nil {
		mask = frame.NewBitmap(base.NumRows())
		mask.SetAll()
	} else {
		m, err := EvalPredicate(base, stmt.Where)
		if err != nil {
			return nil, nil, err
		}
		mask = m
	}

	// Aggregation queries follow their own materialization path; the
	// selection mask over the base table is preserved either way.
	var m materializer
	var err error
	if len(stmt.Aggs) > 0 {
		m, err = planAggregation(stmt, base)
	} else {
		m, err = planRows(stmt, base)
	}
	if err != nil {
		return nil, nil, err
	}
	return &Result{Stmt: stmt, Base: base, Mask: mask}, m, nil
}

// rowPlan is a validated plain SELECT: the projected view of the base
// table, the resolved ORDER BY keys and the limit.
type rowPlan struct {
	projected *frame.Frame
	keys      []sortKey
	limit     int
}

func planRows(stmt *SelectStmt, base *frame.Frame) (*rowPlan, error) {
	projected := base
	if len(stmt.Columns) > 0 {
		var err error
		if projected, err = base.Select(stmt.Columns...); err != nil {
			return nil, evalErrorf("%v", err)
		}
	}
	// ORDER BY keys name base columns, projected or not.
	keys, err := resolveOrder(base, stmt.OrderBy)
	if err != nil {
		return nil, err
	}
	return &rowPlan{projected: projected, keys: keys, limit: stmt.Limit}, nil
}

// rows materializes the selected rows: filtered straight off the mask
// unless ORDER BY or LIMIT needs the row indices.
func (p *rowPlan) rows(mask *frame.Bitmap) (*frame.Frame, error) {
	if len(p.keys) == 0 && p.limit < 0 {
		return p.projected.Filter(mask)
	}
	idx := mask.Indices()
	sortRows(idx, p.keys)
	if p.limit >= 0 && p.limit < len(idx) {
		idx = idx[:p.limit]
	}
	if len(p.keys) > 0 {
		return materializeInOrder(p.projected, idx)
	}
	return p.projected.Filter(frame.BitmapFromIndices(mask.Len(), idx))
}

// sortKey is one resolved ORDER BY term.
type sortKey struct {
	col  *frame.Column
	desc bool
}

// resolveOrder looks the ORDER BY columns up in f.
func resolveOrder(f *frame.Frame, order []OrderKey) ([]sortKey, error) {
	keys := make([]sortKey, len(order))
	for i, k := range order {
		col, ok := f.Lookup(k.Column)
		if !ok {
			return nil, evalErrorf("unknown column %q in ORDER BY", k.Column)
		}
		keys[i] = sortKey{col: col, desc: k.Desc}
	}
	return keys, nil
}

// sortRows stably orders row indices by keys.
func sortRows(idx []int, keys []sortKey) {
	if len(keys) == 0 {
		return
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ra, rb := idx[a], idx[b]
		for _, k := range keys {
			cmp := compareRows(k.col, ra, rb)
			if cmp == 0 {
				continue
			}
			if k.desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
}

// compareRows orders two rows of one column: NULLs sort last, numbers by
// value, strings lexicographically.
func compareRows(c *frame.Column, a, b int) int {
	na, nb := c.IsNull(a), c.IsNull(b)
	switch {
	case na && nb:
		return 0
	case na:
		return 1
	case nb:
		return -1
	}
	if c.Kind() == frame.Numeric {
		va, vb := c.Float(a), c.Float(b)
		switch {
		case va < vb:
			return -1
		case va > vb:
			return 1
		default:
			return 0
		}
	}
	sa, sb := c.Str(a), c.Str(b)
	switch {
	case sa < sb:
		return -1
	case sa > sb:
		return 1
	default:
		return 0
	}
}

// materializeInOrder builds a frame from specific row indices in the given
// order.
func materializeInOrder(f *frame.Frame, idx []int) (*frame.Frame, error) {
	b := frame.NewBuilder(f.Name())
	colIdx := make([]int, f.NumCols())
	for i := 0; i < f.NumCols(); i++ {
		c := f.Col(i)
		if c.Kind() == frame.Numeric {
			colIdx[i] = b.AddNumeric(c.Name())
		} else {
			colIdx[i] = b.AddCategorical(c.Name())
		}
	}
	for _, ri := range idx {
		for i := 0; i < f.NumCols(); i++ {
			c := f.Col(i)
			switch {
			case c.IsNull(ri):
				b.AppendNull(colIdx[i])
			case c.Kind() == frame.Numeric:
				b.AppendFloat(colIdx[i], c.Float(ri))
			default:
				b.AppendStr(colIdx[i], c.Str(ri))
			}
		}
	}
	return b.Build()
}

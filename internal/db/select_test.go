package db

import (
	"reflect"
	"testing"

	"repro/internal/randx"
)

// query runs sql through Catalog.Query and returns its result, after
// checking that Catalog.Select agrees: the same Mask, Stmt and Base and no
// Rows, or an error of the same type and message. The eval and aggregate
// tests run every statement through it.
func query(t *testing.T, cat *Catalog, sql string) (*Result, error) {
	t.Helper()
	want, wantErr := cat.Query(sql)
	got, gotErr := cat.Select(sql)
	switch {
	case wantErr != nil || gotErr != nil:
		if reflect.TypeOf(gotErr) != reflect.TypeOf(wantErr) || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: Select error %T %v, Query error %T %v", sql, gotErr, gotErr, wantErr, wantErr)
		}
	case got.Rows != nil:
		t.Errorf("%s: Select materialized rows", sql)
	case got.Base != want.Base || !got.Mask.Equal(want.Mask) || !reflect.DeepEqual(got.Stmt, want.Stmt):
		t.Errorf("%s: Select and Query disagree on the selection", sql)
	}
	return want, wantErr
}

// TestSelectMatchesQuery: Select accepts exactly the statements Query
// accepts, with the same selection, and rejects the rest with the same
// error — for the rejections named below and for random statements over a
// table with NULLs. The eval and aggregate tests check their own
// statements the same way through query.
func TestSelectMatchesQuery(t *testing.T) {
	cities, sales := testCatalog(t), salesCatalog(t)
	for _, sql := range []string{
		"SELECT nosuch FROM cities",
		"SELECT name, nosuch FROM cities WHERE pop > 50",
		"SELECT nosuch FROM cities WHERE pop = 'x'", // the WHERE error wins
		"SELECT name, name FROM cities",
		"SELECT * FROM cities ORDER BY nosuch",
		"SELECT name FROM cities ORDER BY pop DESC LIMIT 2", // order by an unprojected column
		"SELECT * FROM cities LIMIT 0",
		"SELECT * FROM cities WHERE pop > 1e9 ORDER BY pop",
		"SELECT * FROM nosuch",
		"SELECT * FROM cities WHERE",
	} {
		query(t, cities, sql)
	}
	for _, sql := range []string{
		"SELECT COUNT(*) FROM sales",
		"SELECT COUNT(*), SUM(amount) FROM sales LIMIT 0",
		"SELECT region, COUNT(*) FROM sales",
		"SELECT COUNT(*), COUNT(*) FROM sales",
		"SELECT region, COUNT(*) AS region FROM sales GROUP BY region",
		"SELECT SUM(region) FROM sales",
		"SELECT COUNT(*) FROM sales GROUP BY nosuch",
		"SELECT COUNT(*) FROM sales ORDER BY nosuch",
		"SELECT COUNT(*) FROM sales WHERE amount = 'x' ORDER BY nosuch",
		"SELECT region, MAX(product) FROM sales GROUP BY region ORDER BY max_product DESC LIMIT 1",
	} {
		query(t, sales, sql)
	}

	// Random statements over a table with NULLs, including unknown tables
	// and columns, type errors, duplicate outputs and bad ORDER BY keys.
	r := randx.New(7)
	cat := NewCatalog()
	if err := cat.Register(oracleFrame(r, 200)); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 400; trial++ {
		query(t, cat, randomStmt(r).String())
	}
}

// randomStmt draws a SELECT over oracleFrame's table t: a projection or an
// aggregation, an optional WHERE, ORDER BY and LIMIT. Names are sometimes
// unknown and types sometimes wrong, so many statements are rejected.
func randomStmt(r *randx.Source) *SelectStmt {
	pick := func(names ...string) string { return names[r.Intn(len(names))] }
	cols := []string{"x", "y", "g", "h", "nosuch"}
	stmt := &SelectStmt{Table: "t", Limit: -1}
	if r.Bernoulli(0.05) {
		stmt.Table = "nosuch"
	}
	var outputs []string
	if r.Bernoulli(0.4) {
		for i := r.Intn(3); i > 0; i-- {
			stmt.GroupBy = append(stmt.GroupBy, pick(cols...))
		}
		stmt.Columns = append(stmt.Columns, stmt.GroupBy...)
		for i := r.Intn(3) + 1; i > 0; i-- {
			a := AggItem{Func: pick("COUNT", "SUM", "AVG", "MIN", "MAX"), Column: pick(cols...)}
			if a.Func == "COUNT" && r.Bernoulli(0.5) {
				a.Column = ""
			}
			if r.Bernoulli(0.2) {
				a.Alias = pick("m", "x", "count")
			}
			stmt.Aggs = append(stmt.Aggs, a)
			outputs = append(outputs, a.OutputName())
		}
	} else {
		for i := r.Intn(3); i > 0; i-- {
			stmt.Columns = append(stmt.Columns, pick(cols...))
		}
	}
	if r.Bernoulli(0.8) {
		numeric := []string{"x", "y"}
		if r.Bernoulli(0.1) {
			numeric = []string{"x", "g"} // a type error or an unknown-kind leaf
		}
		stmt.Where = randomExpr(r, numeric, []string{"g", "h"}, 2)
	}
	for i := r.Intn(3); i > 0; i-- {
		stmt.OrderBy = append(stmt.OrderBy, OrderKey{Column: pick(append(cols, outputs...)...), Desc: r.Bernoulli(0.5)})
	}
	if r.Bernoulli(0.4) {
		stmt.Limit = r.Intn(4) * r.Intn(60)
	}
	return stmt
}

package db

import (
	"math"
	"testing"

	"repro/internal/frame"
	"repro/internal/randx"
)

// tv is a three-valued logic value.
type tv int8

const (
	tvFalse tv = iota
	tvTrue
	tvUnknown
)

func tvOf(b bool) tv {
	if b {
		return tvTrue
	}
	return tvFalse
}

// oracleRow evaluates expr on one row of f, a row at a time, with SQL's
// three-valued logic: the reference the word-at-a-time evaluator must match
// bit for bit. Leaves compare through the generic operators, never through
// intervals or truth tables.
func oracleRow(t *testing.T, f *frame.Frame, expr Expr, row int) tv {
	t.Helper()
	col := func(name string) *frame.Column {
		c, ok := f.Lookup(name)
		if !ok {
			t.Fatalf("oracle: unknown column %q", name)
		}
		return c
	}
	switch e := expr.(type) {
	case *BinaryLogic:
		l, r := oracleRow(t, f, e.L, row), oracleRow(t, f, e.R, row)
		if e.Op == "AND" {
			switch {
			case l == tvTrue && r == tvTrue:
				return tvTrue
			case l != tvFalse && r != tvFalse:
				return tvUnknown
			}
			return tvFalse
		}
		switch {
		case l == tvTrue || r == tvTrue:
			return tvTrue
		case l == tvUnknown || r == tvUnknown:
			return tvUnknown
		}
		return tvFalse
	case *NotExpr:
		switch oracleRow(t, f, e.Inner, row) {
		case tvTrue:
			return tvFalse
		case tvFalse:
			return tvTrue
		}
		return tvUnknown
	case *IsNullExpr:
		return tvOf(col(e.Column).IsNull(row) != e.Negate)
	}

	var c *frame.Column
	switch e := expr.(type) {
	case *Comparison:
		c = col(e.Column)
	case *InExpr:
		c = col(e.Column)
	case *BetweenExpr:
		c = col(e.Column)
	case *LikeExpr:
		c = col(e.Column)
	default:
		t.Fatalf("oracle: unsupported expression %T", expr)
	}
	if c.IsNull(row) {
		return tvUnknown
	}
	switch e := expr.(type) {
	case *Comparison:
		if c.Kind() == frame.Numeric {
			return tvOf(oracleCompare(c.Float(row), e.Value.Num, e.Op))
		}
		return tvOf(oracleCompare(c.Str(row), e.Value.Str, e.Op))
	case *InExpr:
		found := false
		for _, lit := range e.Values {
			if c.Kind() == frame.Numeric {
				found = found || c.Float(row) == lit.Num
			} else {
				found = found || c.Str(row) == lit.Str
			}
		}
		return tvOf(found != e.Negate)
	case *BetweenExpr:
		var inside bool
		if c.Kind() == frame.Numeric {
			v := c.Float(row)
			inside = v >= e.Lo.Num && v <= e.Hi.Num
		} else {
			s := c.Str(row)
			inside = s >= e.Lo.Str && s <= e.Hi.Str
		}
		return tvOf(inside != e.Negate)
	case *LikeExpr:
		re, err := likeToRegexp(e.Pattern)
		if err != nil {
			t.Fatal(err)
		}
		return tvOf(re.MatchString(c.Str(row)) != e.Negate)
	}
	panic("unreachable")
}

func oracleCompare[T float64 | string](a, b T, op string) bool {
	switch op {
	case "=":
		return a == b
	case "!=", "<>":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	}
	return false
}

// oracleMask is the TRUE mask of expr over f, row by row.
func oracleMask(t *testing.T, f *frame.Frame, expr Expr) *frame.Bitmap {
	t.Helper()
	truths := make([]bool, f.NumRows())
	for i := range truths {
		truths[i] = oracleRow(t, f, expr, i) == tvTrue
	}
	return frame.BitmapFromBools(truths)
}

// Edge values: infinities, the largest finite magnitudes, both zeros,
// subnormals, NaN, and round values the generated literals hit exactly.
var (
	edgeFloats = []float64{
		math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		3 * math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022,
		math.NaN(), 1.5, -1.5, 7, -7, 25, -25, 50, -50,
	}
	edgeStrings = []string{"a", "b'c", "z", "", "ab", "x1y22", "xay", "other", "A", "zz"}
)

// oracleFrame builds an n-row table of numeric columns x, y and categorical
// columns g, h whose cells mix NULLs, edge values, values equal to the
// generated literals, and random round numbers.
func oracleFrame(r *randx.Source, n int) *frame.Frame {
	numeric := func(name string) *frame.Column {
		vals := make([]float64, n)
		for i := range vals {
			switch {
			case r.Bernoulli(0.1):
				vals[i] = math.NaN()
			case r.Bernoulli(0.4):
				vals[i] = edgeFloats[r.Intn(len(edgeFloats))]
			default:
				vals[i] = math.Round(r.Uniform(-60, 60))
			}
		}
		return frame.NewNumericColumn(name, vals)
	}
	categorical := func(name string) *frame.Column {
		codes := make([]int32, n)
		for i := range codes {
			codes[i] = int32(r.Intn(len(edgeStrings)+1)) - 1 // -1 is NULL
		}
		c, err := frame.NewCategoricalColumnFromCodes(name, codes, edgeStrings)
		if err != nil {
			panic(err)
		}
		return c
	}
	return frame.MustNew("t", []*frame.Column{numeric("x"), numeric("y"), categorical("g"), categorical("h")})
}

var oracleOps = []string{"=", "!=", "<>", "<", "<=", ">", ">="}

// edgeLeaf draws a leaf randomExpr does not: comparisons of every operator
// against edge literals, BETWEEN with edge bounds in either order, numeric
// and categorical IN, categorical comparisons and BETWEEN, and IS NULL on
// both kinds.
func edgeLeaf(r *randx.Source) Expr {
	num := func() Literal { return NumberLit(edgeFloats[r.Intn(len(edgeFloats))]) }
	str := func() Literal { return StringLit(edgeStrings[r.Intn(len(edgeStrings))]) }
	numCol := []string{"x", "y"}[r.Intn(2)]
	catCol := []string{"g", "h"}[r.Intn(2)]
	switch r.Intn(7) {
	case 0:
		return &Comparison{Column: numCol, Op: oracleOps[r.Intn(len(oracleOps))], Value: num()}
	case 1:
		return &BetweenExpr{Column: numCol, Lo: num(), Hi: num(), Negate: r.Bernoulli(0.5)}
	case 2:
		vals := make([]Literal, r.Intn(4)+1)
		for i := range vals {
			vals[i] = num()
		}
		return &InExpr{Column: numCol, Values: vals, Negate: r.Bernoulli(0.5)}
	case 3:
		return &Comparison{Column: catCol, Op: oracleOps[r.Intn(len(oracleOps))], Value: str()}
	case 4:
		vals := make([]Literal, r.Intn(4)+1)
		for i := range vals {
			vals[i] = str()
		}
		return &InExpr{Column: catCol, Values: vals, Negate: r.Bernoulli(0.5)}
	case 5:
		return &BetweenExpr{Column: catCol, Lo: str(), Hi: str(), Negate: r.Bernoulli(0.5)}
	default:
		return &IsNullExpr{Column: []string{numCol, catCol}[r.Intn(2)], Negate: r.Bernoulli(0.5)}
	}
}

// oracleExpr builds a random predicate tree whose leaves come from
// randomExpr and edgeLeaf alike.
func oracleExpr(r *randx.Source, depth int) Expr {
	if depth <= 0 || r.Bernoulli(0.4) {
		if r.Bernoulli(0.5) {
			return randomExpr(r, []string{"x", "y"}, []string{"g", "h"}, 0)
		}
		return edgeLeaf(r)
	}
	switch r.Intn(3) {
	case 0:
		return &NotExpr{Inner: oracleExpr(r, depth-1)}
	case 1:
		return &BinaryLogic{Op: "AND", L: oracleExpr(r, depth-1), R: oracleExpr(r, depth-1)}
	default:
		return &BinaryLogic{Op: "OR", L: oracleExpr(r, depth-1), R: oracleExpr(r, depth-1)}
	}
}

// edgeLeaves lists every comparison of x and g against every edge literal
// and operator, and every BETWEEN and NOT BETWEEN over pairs of edge
// literals, in either order.
func edgeLeaves() []Expr {
	var out []Expr
	for _, op := range oracleOps {
		for _, v := range edgeFloats {
			out = append(out, &Comparison{Column: "x", Op: op, Value: NumberLit(v)})
		}
		for _, s := range edgeStrings {
			out = append(out, &Comparison{Column: "g", Op: op, Value: StringLit(s)})
		}
	}
	for _, lo := range edgeFloats {
		for _, hi := range edgeFloats {
			out = append(out,
				&BetweenExpr{Column: "x", Lo: NumberLit(lo), Hi: NumberLit(hi)},
				&BetweenExpr{Column: "x", Lo: NumberLit(lo), Hi: NumberLit(hi), Negate: true})
		}
	}
	return out
}

// TestPredicateMatchesRowOracle: EvalPredicate's TRUE mask equals the row
// oracle's bit for bit — for every edge leaf on a table holding every edge
// value (so open bounds meet ±Inf cells: x >= MaxFloat64 must select +Inf),
// and for random predicate trees over tables of every word shape (empty,
// one row, one word short, exactly one word, one past, two words and a
// bit).
func TestPredicateMatchesRowOracle(t *testing.T) {
	check := func(f *frame.Frame, expr Expr) {
		t.Helper()
		got, err := EvalPredicate(f, expr)
		if err != nil {
			t.Fatalf("n=%d: %s: %v", f.NumRows(), expr, err)
		}
		if want := oracleMask(t, f, expr); !got.Equal(want) {
			t.Fatalf("n=%d: %s\ngot  %v\nwant %v", f.NumRows(), expr, got.Indices(), want.Indices())
		}
	}

	codes := make([]int32, len(edgeFloats))
	for i := range codes {
		codes[i] = int32(i%(len(edgeStrings)+1)) - 1 // -1 is NULL
	}
	g, err := frame.NewCategoricalColumnFromCodes("g", codes, edgeStrings)
	if err != nil {
		t.Fatal(err)
	}
	edges := frame.MustNew("t", []*frame.Column{frame.NewNumericColumn("x", edgeFloats), g})
	for _, leaf := range edgeLeaves() {
		check(edges, leaf)
	}

	r := randx.New(15)
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		f := oracleFrame(r, n)
		for trial := 0; trial < 300; trial++ {
			if trial%2 == 0 {
				check(f, randomExpr(r, []string{"x", "y"}, []string{"g", "h"}, 3))
			} else {
				check(f, oracleExpr(r, 3))
			}
		}
	}
}

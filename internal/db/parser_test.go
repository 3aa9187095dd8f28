package db

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseBasics(t *testing.T) {
	stmt, err := Parse("SELECT * FROM cities")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Table != "cities" || len(stmt.Columns) != 0 || stmt.Where != nil || stmt.Limit != -1 {
		t.Fatalf("stmt = %+v", stmt)
	}
}

func TestParseProjection(t *testing.T) {
	stmt, err := Parse("SELECT a, b, c FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Columns) != 3 || stmt.Columns[1] != "b" {
		t.Fatalf("columns = %v", stmt.Columns)
	}
}

func TestParseWhereComparison(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE crime_rate >= 0.75")
	if err != nil {
		t.Fatal(err)
	}
	cmp, ok := stmt.Where.(*Comparison)
	if !ok {
		t.Fatalf("Where = %T", stmt.Where)
	}
	if cmp.Column != "crime_rate" || cmp.Op != ">=" || cmp.Value.Num != 0.75 {
		t.Fatalf("cmp = %+v", cmp)
	}
}

func TestParsePrecedence(t *testing.T) {
	// AND binds tighter than OR: a OR b AND c == a OR (b AND c).
	stmt, err := Parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
	if err != nil {
		t.Fatal(err)
	}
	or, ok := stmt.Where.(*BinaryLogic)
	if !ok || or.Op != "OR" {
		t.Fatalf("top = %v", stmt.Where)
	}
	and, ok := or.R.(*BinaryLogic)
	if !ok || and.Op != "AND" {
		t.Fatalf("right = %v", or.R)
	}
}

func TestParseParenthesesOverridePrecedence(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3")
	if err != nil {
		t.Fatal(err)
	}
	and, ok := stmt.Where.(*BinaryLogic)
	if !ok || and.Op != "AND" {
		t.Fatalf("top = %v", stmt.Where)
	}
	if _, ok := and.L.(*BinaryLogic); !ok {
		t.Fatalf("left = %T", and.L)
	}
}

func TestParseNotChain(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE NOT NOT a = 1")
	if err != nil {
		t.Fatal(err)
	}
	n1, ok := stmt.Where.(*NotExpr)
	if !ok {
		t.Fatalf("top = %T", stmt.Where)
	}
	if _, ok := n1.Inner.(*NotExpr); !ok {
		t.Fatalf("inner = %T", n1.Inner)
	}
}

func TestParseInBetweenLike(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE g IN ('a', 'b') AND x BETWEEN 1 AND 5 AND name LIKE 'New%'")
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.Where.String()
	for _, want := range []string{"IN ('a', 'b')", "BETWEEN 1 AND 5", "LIKE 'New%'"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered %q missing %q", s, want)
		}
	}
}

func TestParseNegatedForms(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE g NOT IN ('a') AND x NOT BETWEEN 1 AND 2 AND s NOT LIKE '%z' AND y IS NOT NULL")
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.Where.String()
	for _, want := range []string{"NOT IN", "NOT BETWEEN", "NOT LIKE", "IS NOT NULL"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered %q missing %q", s, want)
		}
	}
}

func TestParseIsNull(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE x IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	e, ok := stmt.Where.(*IsNullExpr)
	if !ok || e.Negate {
		t.Fatalf("Where = %+v", stmt.Where)
	}
}

func TestParseOrderByLimit(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t ORDER BY a DESC, b ASC, c LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.OrderBy) != 3 || !stmt.OrderBy[0].Desc || stmt.OrderBy[1].Desc || stmt.OrderBy[2].Desc {
		t.Fatalf("order = %+v", stmt.OrderBy)
	}
	if stmt.Limit != 10 {
		t.Fatalf("limit = %d", stmt.Limit)
	}
}

func TestParseQuotedIdentifiers(t *testing.T) {
	stmt, err := Parse(`SELECT "weird col" FROM t WHERE "weird col" > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Columns[0] != "weird col" {
		t.Fatalf("columns = %v", stmt.Columns)
	}
}

func TestParseStringEscapes(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE s = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	cmp := stmt.Where.(*Comparison)
	if cmp.Value.Str != "it's" {
		t.Fatalf("literal = %q", cmp.Value.Str)
	}
}

func TestParseNegativeAndScientificNumbers(t *testing.T) {
	stmt, err := Parse("SELECT * FROM t WHERE x > -1.5 AND y < 2e3")
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.Where.String()
	if !strings.Contains(s, "-1.5") || !strings.Contains(s, "2000") {
		t.Fatalf("rendered %q", s)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	if _, err := Parse("select * from t where x = 1 order by x limit 5"); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE x",
		"SELECT * FROM t WHERE x >",
		"SELECT * FROM t WHERE x = 'unterminated",
		"SELECT * FROM t WHERE x = 1 GARBAGE",
		"SELECT * FROM t WHERE (x = 1",
		"SELECT * FROM t WHERE x IN 1",
		"SELECT * FROM t WHERE x IN ()",
		"SELECT * FROM t WHERE x IN (1",
		"SELECT * FROM t WHERE x BETWEEN 1",
		"SELECT * FROM t WHERE x BETWEEN 1 5",
		"SELECT * FROM t WHERE x LIKE 5",
		"SELECT * FROM t WHERE x IS 5",
		"SELECT * FROM t WHERE x NOT 5",
		"SELECT * FROM t LIMIT -3",
		"SELECT * FROM t LIMIT x",
		"SELECT * FROM t LIMIT 1.5",
		"SELECT * FROM t ORDER x",
		"SELECT * FROM t ORDER BY",
		"SELECT a, FROM t",
		"SELECT * FROM t WHERE ! x",
		"SELECT * FROM t WHERE x = @",
		`SELECT * FROM t WHERE "unterminated`,
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestSyntaxErrorHasPosition(t *testing.T) {
	_, err := Parse("SELECT * FROM t WHERE x = @")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Pos != 26 {
		t.Fatalf("pos = %d, want 26", se.Pos)
	}
	if !strings.Contains(se.Error(), "position 26") {
		t.Fatalf("message = %q", se.Error())
	}
}

func TestStatementStringRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT * FROM t",
		"SELECT a, b FROM t WHERE ((a > 1 AND b <= 2) OR (NOT c = 3)) ORDER BY a DESC, b LIMIT 7",
		"SELECT * FROM t WHERE g IN ('x', 'y') AND v NOT BETWEEN -1 AND 1",
		"SELECT * FROM t WHERE s LIKE '%ab_c%' OR s IS NOT NULL",
	}
	for _, q := range queries {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		// Round trip: the rendering must itself parse, to an identical
		// rendering.
		stmt2, err := Parse(stmt.String())
		if err != nil {
			t.Fatalf("reparse of %q (%q): %v", q, stmt.String(), err)
		}
		if stmt.String() != stmt2.String() {
			t.Fatalf("round trip diverged:\n%q\n%q", stmt.String(), stmt2.String())
		}
	}
}

func TestPredicateColumns(t *testing.T) {
	cases := []struct {
		where string
		want  []string
	}{
		{"", nil},
		{"a > 1", []string{"a"}},
		{"b IN ('x', 'y')", []string{"b"}},
		{"b NOT IN (1, 2)", []string{"b"}},
		{"c BETWEEN 1 AND 2", []string{"c"}},
		{"d LIKE 'z%'", []string{"d"}},
		{"e IS NULL", []string{"e"}},
		{"e IS NOT NULL", []string{"e"}},
		{"NOT (a = 1)", []string{"a"}},
		{"(b = 1 OR a = 2) AND NOT (c < 3 OR (d > 4 AND b = 5))", []string{"b", "a", "c", "d"}},
		{"a > 1 AND a < 5 OR a = 3", []string{"a"}},
		{"z = 1 AND a IN (2) AND z BETWEEN 0 AND 9 AND m IS NULL OR a LIKE 'q'", []string{"z", "a", "m"}},
	}
	for _, tc := range cases {
		sql := "SELECT * FROM t"
		if tc.where != "" {
			sql += " WHERE " + tc.where
		}
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if got := stmt.PredicateColumns(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: PredicateColumns = %v, want %v", tc.where, got, tc.want)
		}
	}
	if got := (*SelectStmt)(nil).PredicateColumns(); got != nil {
		t.Errorf("nil statement: PredicateColumns = %v, want nil", got)
	}
}

package db

import (
	"fmt"
	"math"
	"regexp"
	"strings"

	"repro/internal/frame"
)

// Predicate evaluation uses SQL's three-valued logic: each expression
// evaluates to a pair of bit vectors (t, u) where t marks rows on which the
// predicate is TRUE and u marks rows on which it is UNKNOWN (a NULL took
// part in the comparison). WHERE keeps only the TRUE rows, so
// `NOT (x > 5)` correctly excludes rows with NULL x.
//
// Evaluation runs a word at a time: row r lives at bit r&63 of word r>>6,
// each leaf writes its t and u words 64 rows per word, and AND, OR and NOT
// combine words in place. Row bodies are branch-free: range predicates
// select rows at random, so a branch on each outcome would mispredict
// about half the time; bit shifts mask their count with 63 so the compiler
// drops its oversized-shift fix-up. NaN is a numeric NULL and a negative
// code a categorical NULL.

// EvalError reports a semantic failure during predicate evaluation.
type EvalError struct {
	Msg string
}

// Error implements the error interface.
func (e *EvalError) Error() string { return "db: " + e.Msg }

func evalErrorf(format string, args ...any) error {
	return &EvalError{Msg: fmt.Sprintf(format, args...)}
}

// EvalPredicate evaluates expr over f and returns the TRUE bitmap.
func EvalPredicate(f *frame.Frame, expr Expr) (*frame.Bitmap, error) {
	e := evaluator{f: f, n: f.NumRows()}
	t, _, err := e.eval(expr)
	if err != nil {
		return nil, err
	}
	return frame.BitmapFromWords(e.n, t)
}

// evaluator holds one predicate evaluation over a frame of n rows.
type evaluator struct {
	f *frame.Frame
	n int
}

// words returns a vector of one word per 64 rows.
func (e *evaluator) words() []uint64 { return make([]uint64, (e.n+63)/64) }

// trim clears the bits past the last row, which complements set.
func (e *evaluator) trim(w []uint64) {
	if rem := uint(e.n) & 63; rem != 0 {
		w[len(w)-1] &= 1<<rem - 1
	}
}

func (e *evaluator) eval(expr Expr) (t, u []uint64, err error) {
	switch x := expr.(type) {
	case *BinaryLogic:
		if t, u, err = e.eval(x.L); err != nil {
			return nil, nil, err
		}
		t2, u2, err := e.eval(x.R)
		if err != nil {
			return nil, nil, err
		}
		if x.Op == "AND" {
			// TRUE iff both true; UNKNOWN iff both are at least possible
			// (true or unknown) and not both true.
			for i := range t {
				both := t[i] & t2[i]
				u[i] = (t[i] | u[i]) & (t2[i] | u2[i]) &^ both
				t[i] = both
			}
		} else {
			// OR: TRUE iff either true; UNKNOWN iff some side unknown and
			// none true.
			for i := range t {
				t[i] |= t2[i]
				u[i] = (u[i] | u2[i]) &^ t[i]
			}
		}
		return t, u, nil

	case *NotExpr:
		if t, u, err = e.eval(x.Inner); err != nil {
			return nil, nil, err
		}
		// NOT TRUE = FALSE, NOT FALSE = TRUE, NOT UNKNOWN = UNKNOWN.
		for i := range t {
			t[i] = ^(t[i] | u[i])
		}
		e.trim(t)
		return t, u, nil

	case *Comparison:
		c, err := e.column(x.Column)
		if err != nil {
			return nil, nil, err
		}
		if c.Kind() == frame.Numeric {
			if x.Value.IsString {
				return nil, nil, evalErrorf("cannot compare numeric column %q with string %q", x.Column, x.Value.Str)
			}
			lo, hi, neg := comparisonInterval(x.Op, x.Value.Num)
			t, u = e.interval(c.Floats(), lo, hi, neg)
			return t, u, nil
		}
		if !x.Value.IsString {
			return nil, nil, evalErrorf("cannot compare categorical column %q with number %v", x.Column, x.Value.Num)
		}
		accepts, v := orderAccepts[x.Op], x.Value.Str
		t, u = e.codes(c, false, func(s string) bool { return accepts[strings.Compare(s, v)+1] })
		return t, u, nil

	case *InExpr:
		c, err := e.column(x.Column)
		if err != nil {
			return nil, nil, err
		}
		if c.Kind() == frame.Numeric {
			set := make(map[float64]bool, len(x.Values))
			for _, lit := range x.Values {
				if lit.IsString {
					return nil, nil, evalErrorf("string literal in IN list for numeric column %q", x.Column)
				}
				set[lit.Num] = true
			}
			t, u = e.inSet(c.Floats(), set, x.Negate)
			return t, u, nil
		}
		set := make(map[string]bool, len(x.Values))
		for _, lit := range x.Values {
			if !lit.IsString {
				return nil, nil, evalErrorf("numeric literal in IN list for categorical column %q", x.Column)
			}
			set[lit.Str] = true
		}
		t, u = e.codes(c, x.Negate, func(s string) bool { return set[s] })
		return t, u, nil

	case *BetweenExpr:
		c, err := e.column(x.Column)
		if err != nil {
			return nil, nil, err
		}
		if c.Kind() == frame.Numeric {
			if x.Lo.IsString || x.Hi.IsString {
				return nil, nil, evalErrorf("string bounds in BETWEEN for numeric column %q", x.Column)
			}
			t, u = e.interval(c.Floats(), x.Lo.Num, x.Hi.Num, x.Negate)
			return t, u, nil
		}
		if !x.Lo.IsString || !x.Hi.IsString {
			return nil, nil, evalErrorf("numeric bounds in BETWEEN for categorical column %q", x.Column)
		}
		lo, hi := x.Lo.Str, x.Hi.Str
		t, u = e.codes(c, x.Negate, func(s string) bool { return s >= lo && s <= hi })
		return t, u, nil

	case *LikeExpr:
		c, err := e.column(x.Column)
		if err != nil {
			return nil, nil, err
		}
		if c.Kind() != frame.Categorical {
			return nil, nil, evalErrorf("LIKE requires a categorical column, %q is %s", x.Column, c.Kind())
		}
		re, err := likeToRegexp(x.Pattern)
		if err != nil {
			return nil, nil, err
		}
		t, u = e.codes(c, x.Negate, re.MatchString)
		return t, u, nil

	case *IsNullExpr:
		c, err := e.column(x.Column)
		if err != nil {
			return nil, nil, err
		}
		// The complement of an empty leaf is TRUE on the non-NULL rows and
		// UNKNOWN on the NULL ones; IS NULL itself is never UNKNOWN.
		var valid, nulls []uint64
		if c.Kind() == frame.Numeric {
			valid, nulls = e.interval(c.Floats(), math.Inf(1), math.Inf(-1), true)
		} else {
			valid, nulls = e.codes(c, true, func(string) bool { return false })
		}
		if x.Negate {
			return valid, e.words(), nil
		}
		return nulls, e.words(), nil

	default:
		return nil, nil, evalErrorf("unsupported expression %T", expr)
	}
}

func (e *evaluator) column(name string) (*frame.Column, error) {
	c, ok := e.f.Lookup(name)
	if !ok {
		return nil, evalErrorf("unknown column %q in table %q", name, e.f.Name())
	}
	return c, nil
}

// b2u converts a bool to 0 or 1; the compiler lowers it to a flag move, not
// a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// comparisonInterval maps `x op v` on a numeric column to the closed
// interval of accepted values, complemented when neg is set. Open bounds
// move one float inward, and x > +Inf and x < -Inf accept nothing (an empty
// interval, lo > hi), as does an unknown operator. A NaN literal makes
// every interval empty, so only != accepts (every non-NULL row).
func comparisonInterval(op string, v float64) (lo, hi float64, neg bool) {
	inf := math.Inf(1)
	switch op {
	case "=":
		return v, v, false
	case "!=", "<>":
		return v, v, true
	case "<=":
		return -inf, v, false
	case ">=":
		return v, inf, false
	case "<":
		if v != -inf {
			return -inf, math.Nextafter(v, -inf), false
		}
	case ">":
		if v != inf {
			return math.Nextafter(v, inf), inf, false
		}
	}
	return inf, -inf, false
}

// orderAccepts maps a comparison operator to the outcomes of
// strings.Compare(cell, literal) — less, equal, greater — it accepts. An
// unknown operator accepts none.
var orderAccepts = map[string][3]bool{
	"=": {false, true, false}, "!=": {true, false, true}, "<>": {true, false, true},
	"<": {true, false, false}, "<=": {true, true, false},
	">": {false, false, true}, ">=": {false, true, true},
}

// interval is the numeric kernel: a row is TRUE when its value lies in
// [lo, hi] (outside it when neg is set) and UNKNOWN when it is NaN.
func (e *evaluator) interval(vals []float64, lo, hi float64, neg bool) (t, u []uint64) {
	t, u = e.words(), e.words()
	flip := -b2u(neg)
	for w := range t {
		var in, null uint64
		for j, v := range vals[w<<6 : min(w<<6+64, len(vals))] {
			in |= (b2u(lo <= v) & b2u(v <= hi)) << (uint(j) & 63)
			null |= b2u(v != v) << (uint(j) & 63)
		}
		t[w] = (in ^ flip) &^ null
		u[w] = null
	}
	e.trim(t)
	return t, u
}

// inSet is the numeric IN kernel: a row is TRUE when its value is in set
// (not in it when neg is set) and UNKNOWN when it is NaN.
func (e *evaluator) inSet(vals []float64, set map[float64]bool, neg bool) (t, u []uint64) {
	t, u = e.words(), e.words()
	flip := -b2u(neg)
	for w := range t {
		var in, null uint64
		for j, v := range vals[w<<6 : min(w<<6+64, len(vals))] {
			in |= b2u(set[v]) << (uint(j) & 63)
			null |= b2u(v != v) << (uint(j) & 63)
		}
		t[w] = (in ^ flip) &^ null
		u[w] = null
	}
	e.trim(t)
	return t, u
}

// codes is the categorical kernel. match runs once per dictionary entry
// (negated when neg is set) to fill a truth table indexed by code+1, whose
// entry 0 stands for NULL and stays FALSE; each row then reads its entry
// and is UNKNOWN when its code is negative.
func (e *evaluator) codes(c *frame.Column, neg bool, match func(string) bool) (t, u []uint64) {
	dict := c.Dict()
	truth := make([]uint64, len(dict)+1)
	for k, s := range dict {
		truth[k+1] = b2u(match(s) != neg)
	}
	codes := c.Codes()
	t, u = e.words(), e.words()
	for w := range t {
		var in, null uint64
		for j, code := range codes[w<<6 : min(w<<6+64, len(codes))] {
			isNull := code >> 31 // -1 for a negative (NULL) code, else 0
			in |= truth[(code+1)&^isNull] << (uint(j) & 63)
			null |= uint64(isNull&1) << (uint(j) & 63)
		}
		t[w] = in
		u[w] = null
	}
	return t, u
}

// likeToRegexp compiles a SQL LIKE pattern (% = any run, _ = any one rune)
// into an anchored regular expression.
func likeToRegexp(pattern string) (*regexp.Regexp, error) {
	var b strings.Builder
	b.WriteString("^")
	for _, r := range pattern {
		switch r {
		case '%':
			b.WriteString(".*")
		case '_':
			b.WriteString(".")
		default:
			b.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	b.WriteString("$")
	re, err := regexp.Compile(b.String())
	if err != nil {
		return nil, evalErrorf("invalid LIKE pattern %q: %v", pattern, err)
	}
	return re, nil
}

package db

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/frame"
	"repro/internal/randx"
)

// benchSelectTable builds a 65,000×16 table with the append_remote mix of
// the repo benchmark: every 4th column categorical (four levels), every
// 8th numeric column with 5% NULLs, numeric values normal around a
// per-column offset.
func benchSelectTable() *frame.Frame {
	const rows, cols = 65000, 16
	levels := []string{"low", "mid", "high", "top"}
	r := randx.New(15)
	b := frame.NewBuilder("t")
	for c := 0; c < cols; c++ {
		if c%4 == 3 {
			idx := b.AddCategorical(fmt.Sprintf("k%03d", c))
			for j := 0; j < rows; j++ {
				level := min(len(levels)-1, max(0, int(math.Floor(r.NormFloat64()+2))))
				b.AppendStr(idx, levels[level])
			}
			continue
		}
		idx := b.AddNumeric(fmt.Sprintf("c%03d", c))
		offset := float64(10 * (c%7 + 1))
		for j := 0; j < rows; j++ {
			if c%8 == 4 && r.Float64() < 0.05 {
				b.AppendNull(idx)
				continue
			}
			b.AppendFloat(idx, offset+r.NormFloat64())
		}
	}
	return b.MustBuild()
}

// BenchmarkSelect times the SQL selection layer: parse, validate and
// compute the WHERE mask on a table the size of append_remote's, for the
// benchmark's range predicate and the two categorical kernels. The
// query-materialise case runs Catalog.Query on the range statement, which
// also builds the result rows, for contrast.
func BenchmarkSelect(b *testing.B) {
	cat := NewCatalog()
	if err := cat.Register(benchSelectTable()); err != nil {
		b.Fatal(err)
	}
	const rangeSQL = "SELECT * FROM t WHERE c004 >= 49.5 AND c004 <= 50.5"
	cases := []struct {
		name string
		sql  string
		run  func(string) (*Result, error)
	}{
		{"range", rangeSQL, cat.Select},
		{"categorical-in", "SELECT * FROM t WHERE k003 IN ('mid', 'top')", cat.Select},
		{"like", "SELECT * FROM t WHERE k007 LIKE '%i%'", cat.Select},
		{"query-materialise", rangeSQL, cat.Query},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := tc.run(tc.sql)
				if err != nil {
					b.Fatal(err)
				}
				if res.Mask.Count() == 0 {
					b.Fatal("empty selection")
				}
			}
		})
	}
}

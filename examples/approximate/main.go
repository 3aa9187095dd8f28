// Approximate demonstrates the two extension knobs beyond the demo paper's
// defaults: BlinkDB-style row sampling (Options.ApproxRows) for interactive
// latency on large tables, reported with its provenance block
// (Report.Approximate), and the extended Zig-Component families from the
// companion research paper (Config.Extended).
//
// Run with:
//
//	go run ./examples/approximate
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	ziggy "repro"
)

func run(title string, cfg ziggy.Config, table *ziggy.Frame, sql string, opts ziggy.Options) {
	session, err := ziggy.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := session.Register(table); err != nil {
		log.Fatal(err)
	}
	// Warm the dependency cache so the timing below is the per-query cost
	// an interactive user feels; the timed run skips the report cache,
	// which would otherwise answer the repeat without computing.
	if _, err := session.CharacterizeOpts(sql, opts); err != nil {
		log.Fatal(err)
	}
	opts.SkipReportCache = true
	start := time.Now()
	report, err := session.CharacterizeOpts(sql, opts)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("--- %s ---\n", title)
	sampled := ""
	if a := report.Approximate; a != nil {
		sampled = fmt.Sprintf(" (statistics from %d sampled rows, standard errors ×%.1f)",
			a.SampleRows, a.SEInflation)
	}
	fmt.Printf("warm query: %v%s\n", elapsed.Round(time.Millisecond), sampled)
	for i, view := range report.Views {
		if i >= 2 {
			break
		}
		fmt.Printf("%d. %s\n   %s\n", i+1, strings.Join(view.Columns, " × "), view.Explanation)
	}
	fmt.Println()
}

func main() {
	fmt.Println("generating the US Crime table...")
	table := ziggy.USCrimeData(42)
	p90, err := ziggy.Quantile(table, "crime_violent_rate", 0.9)
	if err != nil {
		log.Fatal(err)
	}
	sql := fmt.Sprintf("SELECT * FROM uscrime WHERE crime_violent_rate >= %.1f", p90)
	exclude := []string{"crime_violent_rate"}

	// 1. Exact mode: every row feeds the statistics.
	exact := ziggy.Options{ExcludeColumns: exclude}
	run("exact statistics", ziggy.DefaultConfig(), table, sql, exact)

	// 2. Approximate mode: cap the per-query statistics at 500 rows. The
	//    views keep their shape; the latency drops, and the report says
	//    which sample it ran on.
	approx := ziggy.Options{ExcludeColumns: exclude, ApproxRows: 500}
	run("sampled statistics (500 rows)", ziggy.DefaultConfig(), table, sql, approx)

	// 3. Extended components: quantile shifts, tail-weight changes,
	//    entropy changes and categorical↔numeric separation changes join
	//    the score and the explanations.
	extended := ziggy.DefaultConfig()
	extended.Extended = true
	run("extended Zig-Components", extended, table, sql, exact)
}

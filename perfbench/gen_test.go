package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/frame"
)

const testMinRows = 5

func exploreHash(t *testing.T, seed uint64) (string, []exploreReq) {
	t.Helper()
	tables := make([]*frame.Frame, len(exploreTables))
	for i, et := range exploreTables {
		tables[i] = et.build(exploreDataSeed)
	}
	_, timed, hash := exploreSchedule(seed, 2, tables, testMinRows)
	return hash, timed
}

func TestExploreScheduleHashPinsSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the demo datasets")
	}
	h1, timed := exploreHash(t, 1)
	h1again, _ := exploreHash(t, 1)
	h2, _ := exploreHash(t, 2)
	if h1 != h1again {
		t.Errorf("same seed, different schedule hashes: %s vs %s", h1, h1again)
	}
	if h1 == h2 {
		t.Errorf("seeds 1 and 2 share schedule hash %s", h1)
	}
	var nFresh int
	for _, rq := range timed {
		if rq.kind == fresh {
			nFresh++
		}
	}
	if want := int(exploreRate) * 2 * exploreFresh / exploreBlock; len(timed) != int(exploreRate)*2 || nFresh != want {
		t.Errorf("%d requests, %d fresh; want %d and %d", len(timed), nFresh, int(exploreRate)*2, want)
	}
}

func TestAppendPlanHashPinsSeed(t *testing.T) {
	plan := func(seed uint64) string {
		_, h := makeAppendPlan(seed, remoteShape, []string{"a", "b"}, 3000, 200, 6, true, testMinRows)
		return h
	}
	if plan(1) != plan(1) {
		t.Errorf("same seed, different append plan hashes")
	}
	if plan(1) == plan(2) {
		t.Errorf("seeds 1 and 2 share an append plan hash")
	}
}

func TestWideInputsHashPinsSeed(t *testing.T) {
	hash := func(seed uint64) string {
		var h scheduleHasher
		for i := 0; i < 3; i++ {
			wideInputs(seed, i, testMinRows).hash(&h, i)
		}
		return h.sum()
	}
	if hash(1) != hash(1) {
		t.Errorf("same seed, different cold_wide hashes")
	}
	if hash(1) == hash(2) {
		t.Errorf("seeds 1 and 2 share a cold_wide hash")
	}
}

// Every generated selection leaves at least MinRows rows on each side, so
// no characterization can fail on selection size.
func TestRangeQueriesSelectBothSides(t *testing.T) {
	cfg := core.DefaultConfig()
	plan, _ := makeAppendPlan(3, remoteShape, []string{"a"}, 3000, 200, 20, true, cfg.MinRows)
	cat := db.NewCatalog()
	if err := cat.Register(plan.base[0]); err != nil {
		t.Fatal(err)
	}
	sqls := append([]string{plan.standing[0]}, plan.standing...)
	for _, rd := range plan.rounds {
		sqls = append(sqls, rd.fresh)
	}
	w := wideInputs(3, 0, cfg.MinRows)
	if err := cat.Register(w.f); err != nil {
		t.Fatal(err)
	}
	sqls = append(sqls, w.sql)
	for _, sql := range sqls {
		res, err := cat.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		in := res.Mask.Count()
		if in < cfg.MinRows || res.Base.NumRows()-in < cfg.MinRows {
			t.Errorf("%s selects %d of %d rows", sql, in, res.Base.NumRows())
		}
	}
}

// Appended versions rebuilt for the reference have the schema of the base.
func TestAppendVersionsRebuildInOrder(t *testing.T) {
	plan, _ := makeAppendPlan(4, remoteShape, []string{"a", "b"}, 1000, 100, 4, false, testMinRows)
	versions := plan.versions()
	f, err := versions(query{table: "b", version: 2})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != 1200 {
		t.Errorf("table b at version 2 has %d rows, want 1200", f.NumRows())
	}
	if _, err := versions(query{table: "b", version: 1}); err == nil {
		t.Errorf("asking for an older version after a newer one must fail")
	}
}

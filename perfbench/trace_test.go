package main

import (
	"testing"
	"time"
)

func ms2d(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// sp builds a span over [start, end] milliseconds.
func sp(id, req int64, name string, start, end float64, key spanKey) span {
	return span{id: id, req: req, name: name, start: ms2d(start), end: ms2d(end), key: key}
}

func TestSelfTimes(t *testing.T) {
	// A 100 ms request with children [10,40] and [30,60] (overlapping:
	// union 50 ms), a grandchild [15,20] under the first child, and a
	// child [90,120] sticking out of the parent (only [90,100] counts).
	spans := []span{
		{id: 1, name: "root", start: 0, end: ms2d(100)},
		{id: 2, parent: 1, name: "a", start: ms2d(10), end: ms2d(40)},
		{id: 3, parent: 1, name: "b", start: ms2d(30), end: ms2d(60)},
		{id: 4, parent: 2, name: "a.inner", start: ms2d(15), end: ms2d(20)},
		{id: 5, parent: 1, name: "late", start: ms2d(90), end: ms2d(120)},
	}
	got := selfTimes(spans)
	want := map[int64]time.Duration{
		1: ms2d(100 - 50 - 10),
		2: ms2d(30 - 5),
		3: ms2d(30),
		4: ms2d(5),
		5: ms2d(30),
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}
}

func TestCoveredDisjointAndNested(t *testing.T) {
	parent := span{start: 0, end: ms2d(50)}
	kids := []span{
		{start: ms2d(40), end: ms2d(45)},
		{start: ms2d(0), end: ms2d(10)},
		{start: ms2d(2), end: ms2d(8)},
		{start: ms2d(20), end: ms2d(30)},
	}
	if got, want := covered(parent, kids), ms2d(25); got != want {
		t.Errorf("covered = %v, want %v", got, want)
	}
	if got := covered(parent, nil); got != 0 {
		t.Errorf("covered with no children = %v, want 0", got)
	}
}

func TestJoinByFingerprint(t *testing.T) {
	k1 := spanKey{frame: 0xf1, sel: 0x51}
	k2 := spanKey{frame: 0xf2, sel: 0x52}
	spans := []span{
		// Two concurrent requests with the same key, and one with another
		// key overlapping both.
		sp(1, 101, "server.handle", 0, 100, k1),
		sp(2, 102, "server.handle", 50, 200, k1),
		sp(3, 103, "server.handle", 10, 190, k2),
		// Backend spans carry only the key.
		sp(10, 0, "shard.probe", 20, 21, k1),        // inside 1 only
		sp(11, 0, "shard.characterize", 60, 90, k1), // inside 1 and 2: 2 started later
		sp(12, 0, "shard.characterize", 120, 180, k1),
		sp(13, 0, "shard.characterize", 30, 40, k2), // inside 1 and 3: the key picks 3
		// A worker-side span with no key joins the innermost owned span
		// containing it — the keyed backend span 12.
		sp(20, 0, "remote.worker.characterize", 130, 170, spanKey{}),
		// A span no request contains stays unjoined.
		sp(21, 0, "shard.probe", 300, 301, k1),
	}
	join(spans)
	want := map[int64][2]int64{ // id -> {parent, req}
		10: {1, 101},
		11: {2, 102},
		12: {2, 102},
		13: {3, 103},
		20: {12, 102},
		21: {0, 0},
	}
	for _, s := range spans {
		w, ok := want[s.id]
		if !ok {
			continue
		}
		if s.parent != w[0] || s.req != w[1] {
			t.Errorf("span %d (%s) joined parent %d req %d, want parent %d req %d", s.id, s.name, s.parent, s.req, w[0], w[1])
		}
	}
}

func TestJoinLongerUnkeyedSpansFirst(t *testing.T) {
	// An unkeyed register span and the worker span inside it: the register
	// joins the request first, so the worker span nests under it.
	spans := []span{
		sp(1, 7, "op.append", 0, 100, spanKey{1, 2}),
		sp(2, 0, "remote.worker.manifest", 12, 14, spanKey{}),
		sp(3, 0, "shard.register", 10, 30, spanKey{}),
		sp(4, 0, "db.query", 5, 6, spanKey{}),
	}
	spans[3].replay = true
	join(spans)
	if spans[2].parent != 1 || spans[1].parent != 3 || spans[1].req != 7 {
		t.Errorf("register parent %d, manifest parent %d req %d; want 1, 3, 7", spans[2].parent, spans[1].parent, spans[1].req)
	}
	if spans[3].parent != 0 || spans[3].req != 0 {
		t.Errorf("replay span joined parent %d req %d; replays never join", spans[3].parent, spans[3].req)
	}
	self := selfTimes(spans)
	if got, want := self[1], ms2d(80); got != want {
		t.Errorf("op.append self time %v, want %v (the replay must not count)", got, want)
	}
}

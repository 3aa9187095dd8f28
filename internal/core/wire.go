package core

import (
	"time"

	"repro/internal/effect"
	"repro/internal/hypo"
	"repro/internal/wire"
)

// This file is the report wire codec: a versioned binary serialization of
// core.Report for the multi-process serving layer (internal/remote). It is
// built on the shared primitives of internal/wire, and the contract is
// strong: DecodeReport(EncodeReport(r)) reproduces r exactly, including NaN
// p-values and NaN payload bits that JSON cannot carry, so a report served
// by a remote worker is byte-identical (re-encoded) to one computed in
// process. TestRemoteDeterminism and the ziggyd golden suite lean on this.
//
// Layout (version 3), after the 4-byte magic "ZGR\x03":
//
//	report  := approxFlag [approx] selectedRows totalRows timings warnings views flags
//	approx  := sampleRows capRows seed insideRows outsideRows seInflation
//	timings := prepNanos searchNanos postNanos          (3 × u64)
//	warnings:= count {string}*
//	views   := count {view}*
//	view    := columns score tightness pValue significant explanation comps
//	comps   := count {comp}*
//	comp    := kind columns raw norm inside outside stat df df2 p detail
//
// approxFlag is one byte, 1 exactly when the report carries an Approximate
// provenance block (which then follows), 0 for an exact report. Exact and
// approximate reports share this one frame, so stripping the block from an
// approximate report whose sample covered every row yields the exact
// report's bytes.
//
// Decoding is strict: bad magic, any other version (1 and 2 included), a
// flag byte other than 0 or 1, truncation, oversized counts and trailing
// bytes are all errors, never a partially decoded report.

// reportMagic prefixes every encoded report: three fixed bytes plus the
// wire version, bumped whenever the layout changes.
var reportMagic = [4]byte{'Z', 'G', 'R', 3}

const decodingReport = "core: decoding report"

// EncodeContent encodes a report's content identity: EncodeReport with the
// fields that legitimately differ between servings of one request — Timings
// and both cache flags — zeroed. Byte equality of the result is the
// determinism contract across shards, topologies, and cache states.
func EncodeContent(rep *Report) []byte {
	c := *rep
	c.Timings = Timings{}
	c.CacheHit = false
	c.ReportCacheHit = false
	return EncodeReport(&c)
}

// EncodeReport serializes a report in the versioned wire format. The
// encoding is canonical: equal reports encode to equal bytes, so encoded
// reports can be byte-compared (the determinism suites do).
func EncodeReport(rep *Report) []byte {
	var w wire.Buf
	w.B = append(w.B, reportMagic[:]...)
	w.Bool(rep.Approximate != nil)
	if a := rep.Approximate; a != nil {
		w.I64(int64(a.SampleRows))
		w.I64(int64(a.CapRows))
		w.U64(a.Seed)
		w.I64(int64(a.InsideRows))
		w.I64(int64(a.OutsideRows))
		w.F64(a.SEInflation)
	}
	w.I64(int64(rep.SelectedRows))
	w.I64(int64(rep.TotalRows))
	w.I64(int64(rep.Timings.Preparation))
	w.I64(int64(rep.Timings.Search))
	w.I64(int64(rep.Timings.Post))
	w.Strs(rep.Warnings)
	w.U64(uint64(len(rep.Views)))
	for i := range rep.Views {
		v := &rep.Views[i]
		w.Strs(v.Columns)
		w.F64(v.Score)
		w.F64(v.Tightness)
		w.F64(v.PValue)
		w.Bool(v.Significant)
		w.Str(v.Explanation)
		w.U64(uint64(len(v.Components)))
		for _, c := range v.Components {
			w.I64(int64(c.Kind))
			w.Strs(c.Columns)
			w.F64(c.Raw)
			w.F64(c.Norm)
			w.F64(c.Inside)
			w.F64(c.Outside)
			w.F64(c.Test.Stat)
			w.F64(c.Test.DF)
			w.F64(c.Test.DF2)
			w.F64(c.Test.P)
			w.Str(c.Detail)
		}
	}
	w.Bool(rep.CacheHit)
	w.Bool(rep.ReportCacheHit)
	return w.B
}

// DecodeReport parses a wire-format report. It rejects bad magic, any
// version but the current one, truncated or oversized payloads, and
// trailing garbage.
func DecodeReport(data []byte) (*Report, error) {
	if err := wire.CheckMagic(data, reportMagic, decodingReport); err != nil {
		return nil, err
	}
	r := &wire.Reader{What: decodingReport, B: data, Off: len(reportMagic)}
	rep := &Report{}
	if r.Bool() {
		rep.Approximate = &Approximate{
			SampleRows:  int(r.I64()),
			CapRows:     int(r.I64()),
			Seed:        r.U64(),
			InsideRows:  int(r.I64()),
			OutsideRows: int(r.I64()),
			SEInflation: r.F64(),
		}
	}
	rep.SelectedRows = int(r.I64())
	rep.TotalRows = int(r.I64())
	rep.Timings = Timings{
		Preparation: time.Duration(r.I64()),
		Search:      time.Duration(r.I64()),
		Post:        time.Duration(r.I64()),
	}
	rep.Warnings = r.Strs()
	// A view is at least 8 fixed u64-sized fields; 8 bytes is a safe floor.
	nViews := r.Count(8)
	if nViews > 0 {
		rep.Views = make([]View, nViews)
	}
	for i := 0; i < nViews && r.Err == nil; i++ {
		v := &rep.Views[i]
		v.Columns = r.Strs()
		v.Score = r.F64()
		v.Tightness = r.F64()
		v.PValue = r.F64()
		v.Significant = r.Bool()
		v.Explanation = r.Str()
		nComps := r.Count(8)
		if nComps > 0 {
			v.Components = make([]effect.Component, nComps)
		}
		for j := 0; j < nComps && r.Err == nil; j++ {
			c := &v.Components[j]
			c.Kind = effect.Kind(r.I64())
			c.Columns = r.Strs()
			c.Raw = r.F64()
			c.Norm = r.F64()
			c.Inside = r.F64()
			c.Outside = r.F64()
			c.Test = hypo.Result{Stat: r.F64(), DF: r.F64(), DF2: r.F64(), P: r.F64()}
			c.Detail = r.Str()
		}
	}
	rep.CacheHit = r.Bool()
	rep.ReportCacheHit = r.Bool()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return rep, nil
}

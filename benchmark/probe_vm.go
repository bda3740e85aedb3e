package main

import (
	"fmt"

	"godsm/internal/vm"
)

// probePage is the paper's protection granularity. One page fits the L1
// cache on purpose: the engine diffs a page right after the application
// wrote it, so cache-resident is the case that occurs.
const probePage = 8192

// probeVM times twins and diffs on a single page: a sparse diff (16
// changed words, what a kv put epoch leaves) and a dense one (every word
// changed, what a stencil sweep leaves).
var probeVM = probe{name: "vm twins and diffs", run: func(e *probeEnv) error {
	const batch = 64
	old := make([]byte, probePage)
	sparse := make([]byte, probePage)
	dense := make([]byte, probePage)
	for i := 0; i < probePage; i += 8 {
		dense[i] = byte(i/8) | 1
	}
	for i := 0; i < probePage; i += probePage / 16 {
		sparse[i] = byte(i/512 + 1)
	}

	var d vm.Diff
	ns := e.sample(batch, func() {
		for i := 0; i < batch; i++ {
			d = vm.MakeDiff(0, old, sparse)
		}
	})
	if d.NumRuns() != 16 {
		return fmt.Errorf("sparse diff has %d runs, want 16", d.NumRuns())
	}
	e.out.set("vm.makediff_sparse_ns", median(ns))

	ns = e.sample(batch, func() {
		for i := 0; i < batch; i++ {
			d = vm.MakeDiff(0, old, dense)
		}
	})
	if d.Size() != probePage {
		return fmt.Errorf("dense diff carries %d bytes, want %d", d.Size(), probePage)
	}
	e.out.set("vm.makediff_dense_mbps", mbps(probePage, median(ns)))

	page := make([]byte, probePage)
	ns = e.sample(batch, func() {
		for i := 0; i < batch; i++ {
			d.Apply(page)
		}
	})
	if string(page) != string(dense) {
		return fmt.Errorf("applying the dense diff did not reproduce the page")
	}
	e.out.set("vm.applydiff_dense_mbps", mbps(probePage, median(ns)))

	as := vm.NewAddressSpace(probePage, probePage)
	ns = e.sample(batch, func() {
		for i := 0; i < batch; i++ {
			as.MakeTwin(0)
			as.DiscardTwin(0)
		}
	})
	e.out.set("vm.twin_ns", median(ns))

	buf := make([]byte, 0, d.WireSize())
	ns = e.sample(batch, func() {
		for i := 0; i < batch; i++ {
			buf = d.AppendEncode(buf[:0])
		}
	})
	e.out.set("vm.diff_encode_mbps", mbps(len(buf), median(ns)))

	var back vm.Diff
	var decErr error
	ns = e.sample(batch, func() {
		for i := 0; i < batch; i++ {
			back, decErr = vm.DecodeDiff(buf)
		}
	})
	if decErr != nil {
		return decErr
	}
	if back.Size() != d.Size() {
		return fmt.Errorf("decoded diff carries %d bytes, want %d", back.Size(), d.Size())
	}
	e.out.set("vm.diff_decode_mbps", mbps(len(buf), median(ns)))
	return nil
}}

package main

import (
	"fmt"

	"godsm/internal/vm"
	"godsm/internal/wire"
)

// probeWire times the frame codec on the three frame shapes that make up
// real-transport traffic — a barrier arrival (control-sized), a two-diff
// update flush and an 8 KiB page reply — and on the frames one traced
// round actually put on the transport.
var probeWire = probe{name: "wire codec", run: func(e *probeEnv) error {
	old := make([]byte, probePage)
	cur := make([]byte, probePage)
	for i := 0; i < len(cur); i += 512 {
		cur[i] = byte(i/512 + 1)
	}
	frames := []struct {
		name string
		h    wire.Header
		data any
	}{
		{"ctl", wire.Header{Kind: wire.KindBarArrive, FromNode: 3, Size: 56, Rid: 9, Orig: 3},
			&wire.BarArrive{From: 3, Site: 1, Seq: 12, Proto: &wire.BarArrivalBar{
				Versions: []wire.PageVersion{{Page: 7, Version: 3}, {Page: 8, Version: 3}},
				Written:  []vm.PageID{7, 8},
			}}},
		{"flush", wire.Header{Kind: wire.KindUpdateFlush, FromNode: 2, FromPort: 1, Size: 64, Rid: 9, Orig: 2},
			&wire.UpdateFlush{Epoch: 4, Diffs: []wire.DiffMsg{
				{Notice: wire.WriteNotice{Page: 3, Creator: 1, Epoch: 4}, Diff: vm.MakeDiff(3, old, cur)},
				{Notice: wire.WriteNotice{Page: 7, Creator: 2, Epoch: 4}, Diff: vm.MakeDiff(7, old, cur)},
			}}},
		{"page", wire.Header{Kind: wire.KindPageRep, FromNode: 1, Reply: true, Size: probePage},
			&wire.PageRep{Page: 5, Data: cur, Version: 3, Absorbed: []int{1, 2}}},
	}
	const batch = 64
	for _, f := range frames {
		enc, err := wire.AppendFrame(nil, &f.h, f.data)
		if err != nil {
			return fmt.Errorf("%s frame: %w", f.name, err)
		}
		buf := make([]byte, 0, len(enc))
		ns := e.sample(batch, func() {
			for i := 0; i < batch; i++ {
				buf, err = wire.AppendFrame(buf[:0], &f.h, f.data)
			}
		})
		if err != nil {
			return fmt.Errorf("%s frame: %w", f.name, err)
		}
		e.out.setNote("wire.encode_"+f.name+"_ns", median(ns), fmt.Sprintf("%d B", len(enc)))
		ns = e.sample(batch, func() {
			for i := 0; i < batch; i++ {
				_, _, _, err = wire.DecodeFrame(enc)
			}
		})
		if err != nil {
			return fmt.Errorf("%s frame: %w", f.name, err)
		}
		e.out.setNote("wire.decode_"+f.name+"_ns", median(ns), fmt.Sprintf("%d B", len(enc)))
	}

	if len(e.corpus) == 0 {
		return fmt.Errorf("no frames were captured for the replay corpus")
	}
	bytes := 0
	for _, f := range e.corpus {
		bytes += len(f)
	}
	var decErr error
	ns := e.sample(1, func() {
		for _, f := range e.corpus {
			if _, _, _, err := wire.DecodeFrame(f); err != nil {
				decErr = err
			}
		}
	})
	if decErr != nil {
		return fmt.Errorf("replay: %w", decErr)
	}
	note := fmt.Sprintf("%d frames, %d B", len(e.corpus), bytes)
	e.out.setNote("wire.replay_decode_frames_per_s", float64(len(e.corpus))/median(ns)*1e9, note)
	e.out.setNote("wire.replay_decode_mbps", mbps(bytes, median(ns)), note)
	return nil
}}

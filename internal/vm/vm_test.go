package vm

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewAddressSpace(t *testing.T) {
	as := NewAddressSpace(100, 64)
	if as.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2 (rounded up)", as.NumPages())
	}
	if len(as.Mem) != 128 {
		t.Fatalf("len(Mem) = %d, want 128", len(as.Mem))
	}
	for pg := PageID(0); int(pg) < as.NumPages(); pg++ {
		if as.Prot(pg) != Read {
			t.Fatalf("page %d initial prot = %v, want Read", pg, as.Prot(pg))
		}
	}
}

func TestBadPageSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-power-of-two page size")
		}
	}()
	NewAddressSpace(100, 100)
}

func TestPageOf(t *testing.T) {
	as := NewAddressSpace(4096, 1024)
	cases := []struct {
		addr int
		want PageID
	}{{0, 0}, {1023, 0}, {1024, 1}, {4095, 3}}
	for _, c := range cases {
		if got := as.PageOf(c.addr); got != c.want {
			t.Errorf("PageOf(%d) = %d, want %d", c.addr, got, c.want)
		}
	}
}

func TestProtTransitions(t *testing.T) {
	as := NewAddressSpace(1024, 1024)
	as.SetProt(0, None)
	if as.Prot(0) != None {
		t.Fatal("SetProt(None) ignored")
	}
	as.SetProt(0, ReadWrite)
	if as.Prot(0) != ReadWrite {
		t.Fatal("SetProt(ReadWrite) ignored")
	}
}

func TestProtString(t *testing.T) {
	if None.String() != "none" || Read.String() != "read" || ReadWrite.String() != "rdwr" {
		t.Fatal("Prot.String mismatch")
	}
}

func TestTwinLifecycle(t *testing.T) {
	as := NewAddressSpace(1024, 1024)
	if as.HasTwin(0) {
		t.Fatal("fresh page has twin")
	}
	as.Mem[8] = 42
	as.MakeTwin(0)
	if !as.HasTwin(0) {
		t.Fatal("MakeTwin did not record twin")
	}
	if as.Twin(0)[8] != 42 {
		t.Fatal("twin is not a snapshot of current contents")
	}
	as.Mem[8] = 99
	if as.Twin(0)[8] != 42 {
		t.Fatal("twin aliases the live page")
	}
	as.DiscardTwin(0)
	if as.HasTwin(0) {
		t.Fatal("DiscardTwin did not drop twin")
	}
}

func TestDoubleTwinPanics(t *testing.T) {
	as := NewAddressSpace(1024, 1024)
	as.MakeTwin(0)
	defer func() {
		if recover() == nil {
			t.Fatal("second MakeTwin did not panic")
		}
	}()
	as.MakeTwin(0)
}

func TestDiffWithoutTwinPanics(t *testing.T) {
	as := NewAddressSpace(1024, 1024)
	defer func() {
		if recover() == nil {
			t.Fatal("DiffAgainstTwin without twin did not panic")
		}
	}()
	as.DiffAgainstTwin(0)
}

func TestDiffRoundTrip(t *testing.T) {
	old := make([]byte, 256)
	cur := make([]byte, 256)
	copy(cur, old)
	// Two separated modified words.
	cur[16] = 1
	cur[200] = 7
	d := MakeDiff(3, old, cur)
	if d.Empty() {
		t.Fatal("diff of modified page is empty")
	}
	if d.NumRuns() != 2 {
		t.Fatalf("NumRuns = %d, want 2", d.NumRuns())
	}
	if d.Size() != 16 {
		t.Fatalf("Size = %d, want 16 (two words)", d.Size())
	}
	got := make([]byte, 256)
	copy(got, old)
	d.Apply(got)
	if !bytes.Equal(got, cur) {
		t.Fatal("apply(diff(old,cur), old) != cur")
	}
}

func TestDiffMergesAdjacentWords(t *testing.T) {
	old := make([]byte, 64)
	cur := make([]byte, 64)
	cur[8], cur[16], cur[17] = 1, 2, 3 // words 1 and 2 contiguous
	d := MakeDiff(0, old, cur)
	if d.NumRuns() != 1 {
		t.Fatalf("NumRuns = %d, want 1 contiguous run", d.NumRuns())
	}
	if d.Size() != 16 {
		t.Fatalf("Size = %d, want 16", d.Size())
	}
}

func TestEmptyDiff(t *testing.T) {
	page := make([]byte, 128)
	d := MakeDiff(0, page, page)
	if !d.Empty() || d.Size() != 0 || d.WireSize() != 6 {
		t.Fatalf("empty diff: empty=%v size=%d wire=%d", d.Empty(), d.Size(), d.WireSize())
	}
}

func TestDiffOverlaps(t *testing.T) {
	old := make([]byte, 64)
	a := make([]byte, 64)
	b := make([]byte, 64)
	a[0] = 1
	b[8] = 1
	da := MakeDiff(0, old, a)
	db := MakeDiff(0, old, b)
	if da.Overlaps(db) {
		t.Fatal("disjoint diffs report overlap")
	}
	b[0] = 2
	db = MakeDiff(0, old, b)
	if !da.Overlaps(db) {
		t.Fatal("overlapping diffs report disjoint")
	}
}

func TestDiffEncodeDecode(t *testing.T) {
	old := make([]byte, 128)
	cur := make([]byte, 128)
	cur[0], cur[64], cur[120] = 9, 8, 7
	d := MakeDiff(11, old, cur)
	enc := d.Encode()
	if len(enc) != d.WireSize() {
		t.Fatalf("len(Encode) = %d, WireSize = %d", len(enc), d.WireSize())
	}
	got, err := DecodeDiff(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("decode mismatch:\n got %+v\nwant %+v", got, d)
	}
}

func TestDecodeDiffTruncated(t *testing.T) {
	old := make([]byte, 64)
	cur := make([]byte, 64)
	cur[8] = 1
	enc := MakeDiff(0, old, cur).Encode()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeDiff(enc[:cut]); err == nil {
			t.Fatalf("DecodeDiff accepted %d/%d bytes", cut, len(enc))
		}
	}
}

// Property: for random page mutations, diff/apply reconstructs the page.
func TestDiffRoundTripProperty(t *testing.T) {
	const pageSize = 512
	f := func(seed int64, nmuts uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		old := make([]byte, pageSize)
		rng.Read(old)
		cur := make([]byte, pageSize)
		copy(cur, old)
		for i := 0; i < int(nmuts); i++ {
			cur[rng.Intn(pageSize)] = byte(rng.Int())
		}
		d := MakeDiff(0, old, cur)
		rebuilt := make([]byte, pageSize)
		copy(rebuilt, old)
		d.Apply(rebuilt)
		if !bytes.Equal(rebuilt, cur) {
			return false
		}
		// And the codec round-trips.
		dec, err := DecodeDiff(d.Encode())
		if err != nil {
			return false
		}
		rebuilt2 := make([]byte, pageSize)
		copy(rebuilt2, old)
		dec.Apply(rebuilt2)
		return bytes.Equal(rebuilt2, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: concurrent disjoint diffs merge to the union of modifications
// regardless of application order (the multi-writer merge guarantee).
func TestDisjointDiffMergeProperty(t *testing.T) {
	const pageSize = 256
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := make([]byte, pageSize)
		rng.Read(base)
		// Writer A mutates even words, writer B odd words.
		a := append([]byte(nil), base...)
		b := append([]byte(nil), base...)
		for w := 0; w < pageSize/8; w++ {
			if rng.Intn(2) == 0 {
				continue
			}
			if w%2 == 0 {
				a[w*8] ^= 0xff
			} else {
				b[w*8] ^= 0xff
			}
		}
		da := MakeDiff(0, base, a)
		db := MakeDiff(0, base, b)
		if da.Overlaps(db) {
			return false
		}
		m1 := append([]byte(nil), base...)
		da.Apply(m1)
		db.Apply(m1)
		m2 := append([]byte(nil), base...)
		db.Apply(m2)
		da.Apply(m2)
		return bytes.Equal(m1, m2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCopyPageInOut(t *testing.T) {
	as := NewAddressSpace(2048, 1024)
	data := make([]byte, 1024)
	for i := range data {
		data[i] = byte(i)
	}
	as.CopyPageIn(1, data)
	if !bytes.Equal(as.Page(1), data) {
		t.Fatal("CopyPageIn mismatch")
	}
	out := as.CopyPageOut(1)
	if !bytes.Equal(out, data) {
		t.Fatal("CopyPageOut mismatch")
	}
	out[0] = 0xFF
	if as.Page(1)[0] == 0xFF {
		t.Fatal("CopyPageOut aliases the page")
	}
}

func TestCopyPageInWrongSizePanics(t *testing.T) {
	as := NewAddressSpace(1024, 1024)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong-size page-in")
		}
	}()
	as.CopyPageIn(0, make([]byte, 100))
}

func TestApplyDiffViaAddressSpace(t *testing.T) {
	as := NewAddressSpace(1024, 1024)
	as.MakeTwin(0)
	as.Mem[40] = 5
	d := as.DiffAgainstTwin(0)
	other := NewAddressSpace(1024, 1024)
	other.ApplyDiff(d)
	if other.Mem[40] != 5 {
		t.Fatal("ApplyDiff did not propagate modification")
	}
}

// Regression for the uint16 run-length truncation: a fully rewritten
// 64 KiB page used to encode a zero-length run, and DecodeDiff silently
// reconstructed an empty diff. MakeDiff now splits the run below the
// 16-bit limit, so the round trip is lossless.
func TestFullPageDiffOverflow(t *testing.T) {
	old := make([]byte, MaxPageSize)
	cur := bytes.Repeat([]byte{0xAB}, MaxPageSize)
	d := MakeDiff(5, old, cur)
	if d.Size() != MaxPageSize {
		t.Fatalf("Size = %d, want %d", d.Size(), MaxPageSize)
	}
	if d.NumRuns() != 2 {
		t.Fatalf("NumRuns = %d, want 2 (split at the 16-bit boundary)", d.NumRuns())
	}
	enc := d.Encode()
	if len(enc) != d.WireSize() {
		t.Fatalf("len(Encode) = %d, WireSize = %d", len(enc), d.WireSize())
	}
	dec, err := DecodeDiff(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Empty() || dec.Size() != MaxPageSize {
		t.Fatalf("decoded diff empty=%v size=%d: full-page run was lost on the wire", dec.Empty(), dec.Size())
	}
	rebuilt := make([]byte, MaxPageSize)
	dec.Apply(rebuilt)
	if !bytes.Equal(rebuilt, cur) {
		t.Fatal("apply(decode(encode(diff))) != cur for a full-page rewrite")
	}
}

func TestMakeDiffRejectsOversizedPage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for a page beyond MaxPageSize")
		}
	}()
	MakeDiff(0, make([]byte, 2*MaxPageSize), make([]byte, 2*MaxPageSize))
}

func TestNewAddressSpaceRejectsOversizedPage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for a page size beyond MaxPageSize")
		}
	}()
	NewAddressSpace(4*MaxPageSize, 2*MaxPageSize)
}

// Adjacent-but-not-overlapping runs (aEnd == b.Off) must report
// non-overlapping — the boundary case of the merge-scan.
func TestDiffOverlapsAdjacentRuns(t *testing.T) {
	old := make([]byte, 64)
	a := make([]byte, 64)
	b := make([]byte, 64)
	a[0], a[8] = 1, 1   // words 0-1: run [0,16)
	b[16], b[24] = 1, 1 // words 2-3: run [16,32)
	da := MakeDiff(0, old, a)
	db := MakeDiff(0, old, b)
	if da.Overlaps(db) || db.Overlaps(da) {
		t.Fatal("adjacent runs (aEnd == b.Off) reported as overlapping")
	}
	// Multi-run interleavings exercise the scan's advance logic.
	c := make([]byte, 64)
	c[8], c[40] = 1, 1 // runs [8,16) and [40,48)
	e := make([]byte, 64)
	e[16], e[32] = 1, 1 // runs [16,24) and [32,40)
	dc := MakeDiff(0, old, c)
	de := MakeDiff(0, old, e)
	if dc.Overlaps(de) || de.Overlaps(dc) {
		t.Fatal("interleaved disjoint runs reported as overlapping")
	}
	e[8] = 2
	de = MakeDiff(0, old, e)
	if !dc.Overlaps(de) || !de.Overlaps(dc) {
		t.Fatal("overlapping runs reported as disjoint")
	}
}

// Overlaps must agree with the brute-force per-word comparison.
func TestDiffOverlapsProperty(t *testing.T) {
	const pageSize = 256
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		old := make([]byte, pageSize)
		a := make([]byte, pageSize)
		b := make([]byte, pageSize)
		awords := make([]bool, pageSize/8)
		bwords := make([]bool, pageSize/8)
		for w := 0; w < pageSize/8; w++ {
			if rng.Intn(3) == 0 {
				a[w*8] = 1
				awords[w] = true
			}
			if rng.Intn(3) == 0 {
				b[w*8] = 1
				bwords[w] = true
			}
		}
		want := false
		for w := range awords {
			if awords[w] && bwords[w] {
				want = true
			}
		}
		return MakeDiff(0, old, a).Overlaps(MakeDiff(0, old, b)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The allocation diet: MakeDiff is two allocations (run headers + one
// shared payload backing) however many runs the page splinters into, and
// AppendEncode into a recycled buffer is allocation-free. The pre-diet
// baseline was 21 allocs/op for this MakeDiff shape and 1 for Encode.
func TestDiffAllocBudget(t *testing.T) {
	old := make([]byte, 8192)
	cur := make([]byte, 8192)
	for i := 0; i < 8192; i += 512 {
		cur[i] = byte(i/512 + 1)
	}
	var d Diff
	if got := testing.AllocsPerRun(100, func() {
		d = MakeDiff(0, old, cur)
	}); got > 2 {
		t.Fatalf("MakeDiff allocs/op = %g, want <= 2", got)
	}
	buf := make([]byte, 0, d.WireSize())
	if got := testing.AllocsPerRun(100, func() {
		buf = d.AppendEncode(buf[:0])
	}); got != 0 {
		t.Fatalf("AppendEncode allocs/op = %g, want 0", got)
	}
	enc := d.Encode()
	if !bytes.Equal(enc, buf) {
		t.Fatal("Encode and AppendEncode disagree")
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := DecodeDiff(enc); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Fatalf("DecodeDiff allocs/op = %g, want <= 2", got)
	}
}

// A steady-state twin lifecycle (through the space's free list) and
// page-fetch round trip (through the pool) recycle their buffers instead of
// allocating.
func TestPageBufPoolRecycles(t *testing.T) {
	as := NewAddressSpace(8192, 8192)
	// Warm the pool for this page size.
	PutPageBuf(GetPageBuf(8192))
	if got := testing.AllocsPerRun(100, func() {
		as.MakeTwin(0)
		as.DiscardTwin(0)
	}); got != 0 {
		t.Fatalf("twin lifecycle allocs/op = %g, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		PutPageBuf(as.CopyPageOut(0))
	}); got != 0 {
		t.Fatalf("CopyPageOut round trip allocs/op = %g, want 0", got)
	}
}

// An epoch's worth of twins — more than the process-wide pool ever keeps
// per size — comes back from the space's own free list at the next epoch.
func TestTwinsRecycleAcrossEpochs(t *testing.T) {
	const pages = 4 * pageBufPoolCap
	as := NewAddressSpace(pages*1024, 1024)
	epoch := func() {
		for pg := PageID(0); pg < pages; pg++ {
			as.MakeTwin(pg)
		}
		for pg := PageID(0); pg < pages; pg++ {
			as.DiscardTwin(pg)
		}
	}
	if got := testing.AllocsPerRun(10, epoch); got != 0 {
		t.Fatalf("twinning %d pages per epoch: %g allocs/epoch in steady state, want 0", pages, got)
	}
	if len(as.twinFree) != pages {
		t.Fatalf("free list holds %d buffers, want one per page (%d)", len(as.twinFree), pages)
	}
}

// A released space leaves its twin buffers to the pool, where the next
// run's first twins come from.
func TestReleaseHandsTwinsToThePool(t *testing.T) {
	a := NewAddressSpace(2048, 2048)
	a.MakeTwin(0)
	twin := &a.Twin(0)[0]
	a.DiscardTwin(0)
	a.Release()
	b := NewAddressSpace(2048, 2048)
	b.MakeTwin(0)
	if &b.Twin(0)[0] != twin {
		t.Fatal("the next space's first twin is a fresh buffer, not the released one")
	}
}

func TestPutPageBufIgnoresOddBuffers(t *testing.T) {
	PutPageBuf(nil)
	PutPageBuf(make([]byte, 10, 20)) // len != cap: not a pool buffer
	b := GetPageBuf(64)
	if len(b) != 64 {
		t.Fatalf("GetPageBuf(64) returned %d bytes", len(b))
	}
	PutPageBuf(b)
	if again := GetPageBuf(64); len(again) != 64 {
		t.Fatalf("recycled GetPageBuf(64) returned %d bytes", len(again))
	}
}

func BenchmarkMakeDiff8K(b *testing.B) {
	old := make([]byte, 8192)
	cur := make([]byte, 8192)
	for i := 0; i < 8192; i += 512 {
		// i/512+1, not byte(i): multiples of 512 truncate to zero in a
		// byte, which would leave the page unmodified and the diff empty.
		cur[i] = byte(i/512 + 1)
	}
	b.SetBytes(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MakeDiff(0, old, cur)
	}
}

func BenchmarkApplyDiff8K(b *testing.B) {
	old := make([]byte, 8192)
	cur := make([]byte, 8192)
	for i := 0; i < 8192; i += 64 {
		cur[i] = byte(i + 1)
	}
	d := MakeDiff(0, old, cur)
	page := make([]byte, 8192)
	b.SetBytes(int64(d.Size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Apply(page)
	}
}

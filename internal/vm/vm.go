// Package vm simulates the virtual-memory machinery a page-based software
// DSM is built on: a per-node copy of the shared segment, a software page
// table with per-page protections, twin pages for multi-writer diffing, and
// a word-granularity run-length-encoded diff codec.
//
// On the paper's system these are real AIX pages manipulated with
// mprotect(2) and trapped with SIGSEGV. The Go runtime owns the real
// address space, so godsm substitutes explicit protection checks performed
// by the typed accessors in internal/core; every protection transition and
// fault the real system would take occurs at the same program point here
// and is charged its measured cost by the engine.
package vm

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Prot is a page protection state.
type Prot uint8

const (
	// None: any access faults (invalid page).
	None Prot = iota
	// Read: reads succeed, writes fault (write trapping armed).
	Read
	// ReadWrite: all accesses succeed.
	ReadWrite
)

func (p Prot) String() string {
	switch p {
	case None:
		return "none"
	case Read:
		return "read"
	case ReadWrite:
		return "rdwr"
	}
	return fmt.Sprintf("prot(%d)", uint8(p))
}

// PageID indexes a page within the shared segment.
type PageID int32

// MaxPageSize is the largest page the diff wire format can frame: run
// offsets are 16-bit, so no modified byte may sit at offset 65536 or
// beyond. Run lengths are also 16-bit but MakeDiff splits longer runs (see
// maxRunLen), so the offset field is the binding limit.
const MaxPageSize = 1 << 16

// AddressSpace is one node's view of the shared segment.
type AddressSpace struct {
	Mem      []byte // local copy of the shared segment
	mapped   []byte // non-nil when Mem is an anonymous mapping (see Release)
	prot     []Prot
	twins    [][]byte // per-page twin, nil when absent
	twinFree [][]byte // discarded twins awaiting reuse by MakeTwin
	pageSize int
	shift    uint
}

// mmapThreshold is the segment size above which NewAddressSpace prefers an
// anonymous mapping over the heap: big enough that small test segments
// stay ordinary GC-managed slices with no release obligation.
const mmapThreshold = 1 << 20

// NewAddressSpace returns an address space of size bytes (rounded up to a
// whole number of pages), all pages zero-filled with protection Read.
func NewAddressSpace(size, pageSize int) *AddressSpace {
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("vm: page size %d not a power of two", pageSize))
	}
	if pageSize > MaxPageSize {
		panic(fmt.Sprintf("vm: page size %d exceeds the diff wire format's %d-byte limit", pageSize, MaxPageSize))
	}
	shift := uint(0)
	for 1<<shift != pageSize {
		shift++
	}
	npages := (size + pageSize - 1) / pageSize
	prot := make([]Prot, npages)
	for i := range prot {
		prot[i] = Read
	}
	as := &AddressSpace{
		prot:     prot,
		twins:    make([][]byte, npages),
		pageSize: pageSize,
		shift:    shift,
	}
	if n := npages * pageSize; n >= mmapThreshold {
		as.mapped = segAlloc(n)
		as.Mem = as.mapped
	}
	if as.Mem == nil {
		as.Mem = make([]byte, npages*pageSize)
	}
	return as
}

// Release returns a mapping-backed segment to the OS; heap-backed spaces
// are left to the garbage collector. Discarded twin buffers go back to the
// page-buffer pool, which keeps as many as its cap allows for the next
// run. The address space (and anything aliasing Mem) must not be touched
// afterwards. Callers that own the full
// run lifecycle (the engine) call this once the report is built; leaking a
// release only costs memory until process exit.
func (as *AddressSpace) Release() {
	for _, t := range as.twinFree {
		PutPageBuf(t)
	}
	as.twinFree = nil
	if as.mapped != nil {
		segFree(as.mapped)
		as.mapped = nil
		as.Mem = nil
	}
}

// PageSize returns the page size in bytes.
func (as *AddressSpace) PageSize() int { return as.pageSize }

// NumPages returns the number of pages in the segment.
func (as *AddressSpace) NumPages() int { return len(as.prot) }

// Shift returns log2(page size), for fast address-to-page conversion.
func (as *AddressSpace) Shift() uint { return as.shift }

// PageOf returns the page containing byte offset addr.
func (as *AddressSpace) PageOf(addr int) PageID { return PageID(addr >> as.shift) }

// Prot returns the protection of page pg.
func (as *AddressSpace) Prot(pg PageID) Prot { return as.prot[pg] }

// SetProt changes the protection of page pg. Cost accounting (the mprotect
// call) is the caller's responsibility.
func (as *AddressSpace) SetProt(pg PageID, p Prot) { as.prot[pg] = p }

// Page returns the current contents of page pg (aliasing Mem).
func (as *AddressSpace) Page(pg PageID) []byte {
	off := int(pg) << as.shift
	return as.Mem[off : off+as.pageSize : off+as.pageSize]
}

// MakeTwin snapshots page pg so later modifications can be diffed. It
// panics if a twin already exists (protocol bug).
//
// Twin buffers cycle through the space's own free list: a node twins
// roughly the same pages every epoch and discards them all at the barrier,
// so the buffers DiscardTwin hands back are the ones the next epoch's
// MakeTwin calls need. The list never holds more buffers than the space
// has pages (each came from a MakeTwin here, one live twin per page) and
// needs no lock: a space is only touched by its node's one running proc.
// Only a run's first twins come from the process-wide page-buffer pool,
// which Release tops up again, so back-to-back small runs reuse them.
func (as *AddressSpace) MakeTwin(pg PageID) {
	if as.twins[pg] != nil {
		panic(fmt.Sprintf("vm: page %d already has a twin", pg))
	}
	var t []byte
	if n := len(as.twinFree); n > 0 {
		t = as.twinFree[n-1]
		as.twinFree = as.twinFree[:n-1]
	} else {
		t = GetPageBuf(as.pageSize)
	}
	copy(t, as.Page(pg))
	as.twins[pg] = t
}

// HasTwin reports whether page pg currently has a twin.
func (as *AddressSpace) HasTwin(pg PageID) bool { return as.twins[pg] != nil }

// DiscardTwin drops page pg's twin, recycling its buffer. Callers must not
// retain the Twin slice past this point (MakeDiff copies, so diffs never
// alias the twin).
func (as *AddressSpace) DiscardTwin(pg PageID) {
	if t := as.twins[pg]; t != nil {
		as.twinFree = append(as.twinFree, t)
	}
	as.twins[pg] = nil
}

// Twin returns page pg's twin, or nil.
func (as *AddressSpace) Twin(pg PageID) []byte { return as.twins[pg] }

// DiffAgainstTwin builds a diff of page pg's modifications since its twin
// was made. The twin is left in place; callers discard it separately.
func (as *AddressSpace) DiffAgainstTwin(pg PageID) Diff {
	t := as.twins[pg]
	if t == nil {
		panic(fmt.Sprintf("vm: diff of page %d without twin", pg))
	}
	return MakeDiff(pg, t, as.Page(pg))
}

// DiffAgainstTwinArena is DiffAgainstTwin with the diff's memory
// bump-allocated from a (see MakeDiffArena).
func (as *AddressSpace) DiffAgainstTwinArena(pg PageID, a *DiffArena) Diff {
	t := as.twins[pg]
	if t == nil {
		panic(fmt.Sprintf("vm: diff of page %d without twin", pg))
	}
	return MakeDiffArena(pg, t, as.Page(pg), a)
}

// ApplyDiff applies d to the local copy of its page.
func (as *AddressSpace) ApplyDiff(d Diff) {
	d.Apply(as.Page(d.Page))
}

// CopyPageIn replaces page pg's contents with data (a full-page fetch).
func (as *AddressSpace) CopyPageIn(pg PageID, data []byte) {
	if len(data) != as.pageSize {
		panic(fmt.Sprintf("vm: page-in of %d bytes, page size %d", len(data), as.pageSize))
	}
	copy(as.Page(pg), data)
}

// CopyPageOut returns a snapshot of page pg (for serving a page fetch).
// The buffer comes from the page-buffer pool; consumers that are done with
// it should hand it back via PutPageBuf.
func (as *AddressSpace) CopyPageOut(pg PageID) []byte {
	out := GetPageBuf(as.pageSize)
	copy(out, as.Page(pg))
	return out
}

// --- content hashing ---------------------------------------------------------

// Hash64 returns a 64-bit mixing hash of b, word-at-a-time with a scalar
// multiply-xor finalizer. It exists for the consistency oracle's per-page
// content digests: cheap enough to hash whole segments every epoch, and
// sensitive to both value and position (so two pages with swapped words
// hash differently). Not cryptographic.
func Hash64(b []byte) uint64 {
	const m = 0x9E3779B97F4A7C15 // 2^64 / golden ratio
	h := uint64(len(b))*m + 0x1F83D9ABFB41BD6B
	i := 0
	for ; i+8 <= len(b); i += 8 {
		h ^= binary.LittleEndian.Uint64(b[i:])
		h *= m
		h ^= h >> 29
	}
	for ; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= m
	}
	h ^= h >> 32
	return h
}

// PageChecksum returns the content digest of page pg's current local copy.
func (as *AddressSpace) PageChecksum(pg PageID) uint64 {
	return Hash64(as.Page(pg))
}

// --- page buffer pool --------------------------------------------------------

// pageBufPool recycles page-sized buffers across nodes and runs: the
// full-page snapshots that serve page fetches (CopyPageOut on the home,
// PutPageBuf at the requester once the reply is copied in), and the twins a
// space starts from and leaves behind (within a run twins recycle through
// their AddressSpace; see MakeTwin). Parallel sweeps run many kernels at
// once, so the buffers sit on small process-wide per-size free lists. A
// mutex-guarded freelist stays allocation-free in steady state (sync.Pool
// would box the slice header on every Put).
type pageBufPool struct {
	mu   sync.Mutex
	free map[int][][]byte
}

// pageBufPoolCap bounds the buffers retained per size; extras go to the GC.
const pageBufPoolCap = 64

var pageBufs = pageBufPool{free: make(map[int][][]byte)}

// GetPageBuf returns a size-byte buffer with unspecified contents, reusing
// a recycled one when available. Pair with PutPageBuf once the contents
// have been consumed.
func GetPageBuf(size int) []byte {
	pageBufs.mu.Lock()
	if list := pageBufs.free[size]; len(list) > 0 {
		b := list[len(list)-1]
		pageBufs.free[size] = list[:len(list)-1]
		pageBufs.mu.Unlock()
		return b
	}
	pageBufs.mu.Unlock()
	return make([]byte, size)
}

// PutPageBuf recycles a buffer handed out by GetPageBuf (directly or via
// CopyPageOut/MakeTwin). The caller must not touch b afterwards. Buffers
// that are never returned are simply collected by the GC, so release is an
// optimization, not an obligation.
func PutPageBuf(b []byte) {
	if len(b) == 0 || len(b) != cap(b) {
		return
	}
	pageBufs.mu.Lock()
	if list := pageBufs.free[len(b)]; len(list) < pageBufPoolCap {
		pageBufs.free[len(b)] = append(list, b)
	}
	pageBufs.mu.Unlock()
}

// --- diffs -------------------------------------------------------------------

// run is one contiguous modified range within a page.
type run struct {
	Off  uint16 // byte offset within the page
	Data []byte // modified bytes
}

// Diff is a run-length encoding of the changes made to one page, built by
// word-granularity comparison of the page against its twin.
type Diff struct {
	Page PageID
	runs []run
	size int // modified payload bytes
}

const wordSize = 8

// maxRunLen is the largest payload one wire-format run may carry: run
// lengths are 16-bit and a fully rewritten 64 KiB page used to truncate to
// a zero-length run, so MakeDiff splits longer modified ranges at the
// largest word-aligned length below 65536. The split keeps offsets in
// range too — the tail run of a full MaxPageSize page starts at 65528.
const maxRunLen = MaxPageSize - wordSize

// MakeDiff compares old and cur (same length, multiple of 8, at most
// MaxPageSize) and returns the run-length encoding of the 8-byte words
// that differ. Two passes keep it to one allocation for the run headers
// and one shared backing array for the payloads.
func MakeDiff(pg PageID, old, cur []byte) Diff {
	return makeDiff(pg, old, cur, nil)
}

// MakeDiffArena is MakeDiff with the run headers and payload backing
// bump-allocated from a, so steady-state diffing allocates nothing. The
// returned diff is only valid until a.Reset.
func MakeDiffArena(pg PageID, old, cur []byte, a *DiffArena) Diff {
	return makeDiff(pg, old, cur, a)
}

func makeDiff(pg PageID, old, cur []byte, a *DiffArena) Diff {
	if len(old) != len(cur) {
		panic("vm: MakeDiff length mismatch")
	}
	if len(cur) > MaxPageSize {
		panic(fmt.Sprintf("vm: MakeDiff on %d bytes exceeds the wire format's %d-byte limit", len(cur), MaxPageSize))
	}
	n := len(cur)
	nruns, size := 0, 0
	for i := 0; i < n; {
		if binary.LittleEndian.Uint64(old[i:]) == binary.LittleEndian.Uint64(cur[i:]) {
			i += wordSize
			continue
		}
		start := i
		for i < n && binary.LittleEndian.Uint64(old[i:]) != binary.LittleEndian.Uint64(cur[i:]) {
			i += wordSize
		}
		nruns += (i - start + maxRunLen - 1) / maxRunLen
		size += i - start
	}
	d := Diff{Page: pg, size: size}
	if nruns == 0 {
		return d
	}
	var backing []byte
	if a != nil {
		d.runs = a.allocRuns(nruns)[:0]
		backing = a.allocData(size)[:0]
	} else {
		d.runs = make([]run, 0, nruns)
		backing = make([]byte, 0, size)
	}
	for i := 0; i < n; {
		if binary.LittleEndian.Uint64(old[i:]) == binary.LittleEndian.Uint64(cur[i:]) {
			i += wordSize
			continue
		}
		start := i
		for i < n && binary.LittleEndian.Uint64(old[i:]) != binary.LittleEndian.Uint64(cur[i:]) {
			i += wordSize
		}
		for off := start; off < i; off += maxRunLen {
			end := off + maxRunLen
			if end > i {
				end = i
			}
			b0 := len(backing)
			backing = append(backing, cur[off:end]...)
			d.runs = append(d.runs, run{Off: uint16(off), Data: backing[b0:len(backing):len(backing)]})
		}
	}
	return d
}

// Empty reports whether the diff carries no modifications.
func (d Diff) Empty() bool { return len(d.runs) == 0 }

// Size returns the modified payload bytes carried by the diff.
func (d Diff) Size() int { return d.size }

// WireSize returns the modeled encoded size in bytes: 4 bytes page id, 2
// bytes run count, plus 4 bytes of (offset,length) framing per run and the
// run payloads.
func (d Diff) WireSize() int { return 6 + 4*len(d.runs) + d.size }

// NumRuns returns the number of contiguous modified ranges.
func (d Diff) NumRuns() int { return len(d.runs) }

// Apply writes the diff's modifications into page (a full-page slice).
func (d Diff) Apply(page []byte) {
	for _, r := range d.runs {
		copy(page[r.Off:int(r.Off)+len(r.Data)], r.Data)
	}
}

// Overlaps reports whether two diffs of the same page touch any common
// word. Concurrent writers in a data-race-free program never overlap; the
// engine uses this as an optional runtime check. Runs are built in
// ascending offset order, so a linear merge-scan suffices.
func (d Diff) Overlaps(o Diff) bool {
	i, j := 0, 0
	for i < len(d.runs) && j < len(o.runs) {
		a, b := d.runs[i], o.runs[j]
		aEnd := int(a.Off) + len(a.Data)
		bEnd := int(b.Off) + len(b.Data)
		if int(a.Off) < bEnd && int(b.Off) < aEnd {
			return true
		}
		if aEnd <= bEnd {
			i++
		} else {
			j++
		}
	}
	return false
}

// Encode serializes the diff to the modeled wire format. Decode inverts it.
// The simulated network passes Go values, so Encode/Decode exist for size
// accounting honesty and are exercised by tests.
func (d Diff) Encode() []byte {
	return d.AppendEncode(make([]byte, 0, d.WireSize()))
}

// AppendEncode appends the wire encoding to buf and returns the extended
// slice — the allocation-free path when the caller recycles buf.
func (d Diff) AppendEncode(buf []byte) []byte {
	var hdr [6]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(d.Page))
	binary.LittleEndian.PutUint16(hdr[4:], uint16(len(d.runs)))
	buf = append(buf, hdr[:]...)
	for _, r := range d.runs {
		if len(r.Data) > maxRunLen {
			panic(fmt.Sprintf("vm: diff run of %d bytes overflows the wire format", len(r.Data)))
		}
		var rh [4]byte
		binary.LittleEndian.PutUint16(rh[0:], r.Off)
		binary.LittleEndian.PutUint16(rh[2:], uint16(len(r.Data)))
		buf = append(buf, rh[:]...)
		buf = append(buf, r.Data...)
	}
	return buf
}

// DecodeDiff parses the wire format produced by Encode. Decoding is
// zero-copy: the run payloads alias buf, so the caller must not mutate or
// recycle buf while the diff is live. (Frames delivered by a transport
// are owned by the receiver and never reused, which makes the aliasing
// legal on the real receive path; the EncodeInFlight assertion enforces
// the matching rule on senders.) A validation pass runs first, so corrupt
// input returns an error before any allocation.
func DecodeDiff(buf []byte) (Diff, error) {
	return decodeDiff(buf, nil)
}

// DecodeDiffArena is DecodeDiff with the run headers bump-allocated from
// a, making steady-state decoding allocation-free. Payloads alias buf
// exactly as in DecodeDiff; the returned diff is only valid until
// a.Reset.
func DecodeDiffArena(buf []byte, a *DiffArena) (Diff, error) {
	return decodeDiff(buf, a)
}

func decodeDiff(buf []byte, a *DiffArena) (Diff, error) {
	if len(buf) < 6 {
		return Diff{}, fmt.Errorf("vm: diff truncated header (%d bytes)", len(buf))
	}
	d := Diff{Page: PageID(binary.LittleEndian.Uint32(buf[0:]))}
	n := int(binary.LittleEndian.Uint16(buf[4:]))
	p := 6
	for i := 0; i < n; i++ {
		if len(buf) < p+4 {
			return Diff{}, fmt.Errorf("vm: diff truncated run header at %d", p)
		}
		l := int(binary.LittleEndian.Uint16(buf[p+2:]))
		p += 4
		if len(buf) < p+l {
			return Diff{}, fmt.Errorf("vm: diff truncated run payload at %d", p)
		}
		d.size += l
		p += l
	}
	if n == 0 {
		return d, nil
	}
	if a != nil {
		d.runs = a.allocRuns(n)
	} else {
		d.runs = make([]run, n)
	}
	p = 6
	for i := 0; i < n; i++ {
		off := binary.LittleEndian.Uint16(buf[p:])
		l := int(binary.LittleEndian.Uint16(buf[p+2:]))
		p += 4
		d.runs[i] = run{Off: off, Data: buf[p : p+l : p+l]}
		p += l
	}
	return d, nil
}

// --- diff arena --------------------------------------------------------------

// DiffArena bump-allocates diff run headers and payload backings so
// epoch-scoped diffing (decode on the receive path, MakeDiff at the
// barrier) stops hitting the GC heap. Diffs carved from an arena are
// valid until Reset; the owner decides when every diff of a generation is
// dead (the engine rotates generations at barrier boundaries). The zero
// value is ready to use. Not safe for concurrent use.
type DiffArena struct {
	runs []run
	data []byte
}

// Reset recycles the arena: every diff previously carved from it becomes
// invalid and its memory is reused by subsequent allocations.
func (a *DiffArena) Reset() {
	a.runs = a.runs[:0]
	a.data = a.data[:0]
}

// allocRuns returns a length-n run slice from the bump slab. When the
// slab is exhausted a larger one replaces it (the old slab stays alive
// through previously returned slices until they die); steady state
// reaches a stable capacity and allocates nothing.
func (a *DiffArena) allocRuns(n int) []run {
	if len(a.runs)+n > cap(a.runs) {
		c := 2 * cap(a.runs)
		if c < n {
			c = n
		}
		if c < 64 {
			c = 64
		}
		a.runs = make([]run, 0, c)
	}
	l := len(a.runs)
	a.runs = a.runs[: l+n : cap(a.runs)]
	return a.runs[l : l+n : l+n]
}

// allocData returns a length-n byte slice from the bump slab, with the
// same growth policy as allocRuns.
func (a *DiffArena) allocData(n int) []byte {
	if len(a.data)+n > cap(a.data) {
		c := 2 * cap(a.data)
		if c < n {
			c = n
		}
		if c < 4096 {
			c = 4096
		}
		a.data = make([]byte, 0, c)
	}
	l := len(a.data)
	a.data = a.data[: l+n : cap(a.data)]
	return a.data[l : l+n : l+n]
}

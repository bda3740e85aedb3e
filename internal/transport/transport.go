// Package transport carries encoded wire frames between DSM nodes under
// the realtime runtime. Three real backends share one interface:
//
//   - mem: goroutine-per-endpoint over in-process channels. Reliable and
//     ordered per sender→receiver pair, but frames still cross an
//     encode/decode boundary — nothing is shared by pointer.
//   - udp: loopback sockets (127.0.0.1, one socket per endpoint). Real
//     datagrams, so loss and reorder are possible and the reliability
//     layer (rid/retransmit/dedup) does real work. Frames larger than a
//     safe datagram are fragmented and reassembled.
//   - tcp: one listener per node with a persistent lazily-dialed stream
//     per ordered node pair. Reliable and ordered like mem, but over the
//     kernel's TCP stack — the stream format spans hosts.
//
// A fourth name, "sim", is registered as a virtual backend: it selects
// the discrete-event kernel with its virtual clock, so no transport
// object is ever constructed for it. Registering it here gives every
// selection surface (CLI flags, dsmd launch requests, the public
// options) one authoritative name list.
//
// A frame is an opaque []byte produced by wire.AppendFrame (4-byte length
// prefix + varint header + payload). The transport never inspects frame
// contents; it only moves bytes.
//
// Ownership, in the order a frame travels. The sender encodes into a
// scratch buffer it overwrites on its next send (netsim.sendReal keeps one
// per node). Send does not retain the caller's slice past the call: mem
// copies it, udp appends it to a batch or to its datagram scratch, tcp
// appends it to the pair's pending buffer — all before returning. The
// frame a backend passes to DeliverFunc is the receiver's outright, and
// the message wire.DecodeFrame builds from it aliases it. A caller that
// needs a frame to outlive Send's return (netsim's delayed and duplicated
// frames, which leave on a timer) copies it first.
package transport

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Addr names one endpoint: a node and a port on it (the DSM uses
// netsim.PortCompute and netsim.PortService).
type Addr struct {
	Node int
	Port int
}

// DeliverFunc receives an inbound frame. The slice is owned by the
// callee; the transport never reuses it. Called from transport-internal
// goroutines, possibly concurrently for different destination endpoints.
type DeliverFunc func(to Addr, frame []byte)

// Transport moves frames between endpoints.
type Transport interface {
	// Start begins delivery. Must be called exactly once, before Send.
	Start(deliver DeliverFunc) error
	// Send queues a frame for to. It may drop (udp) but never blocks
	// indefinitely. The frame is not retained.
	Send(from, to Addr, frame []byte) error
	// MaxFrame is the largest frame Send accepts.
	MaxFrame() int
	// Close stops delivery and releases sockets/goroutines. Frames in
	// flight may be dropped.
	Close() error
}

// Names of the built-in backends.
const (
	KindSim = "sim"
	KindMem = "mem"
	KindUDP = "udp"
	KindTCP = "tcp"
)

// Factory constructs a backend for nodes × ports endpoints.
type Factory func(nodes, ports int) (Transport, error)

// Entry describes one registered backend.
type Entry struct {
	// Name is the selector callers pass to flags, launch requests and
	// godsm.WithTransport.
	Name string
	// Virtual marks a backend realized inside the discrete-event kernel
	// rather than by a Transport object: the name is selectable, but New
	// refuses to construct it. "sim" is the only built-in virtual entry.
	Virtual bool
	// New builds the backend; nil for virtual entries.
	New Factory
}

var (
	regMu    sync.RWMutex
	registry = map[string]Entry{}
)

// Register adds a backend to the selection registry. It panics on an
// empty name, a duplicate, or a non-virtual entry without a factory —
// registration is init-time wiring, and a bad entry is a programming
// error no caller can recover from.
func Register(e Entry) {
	if e.Name == "" {
		panic("transport: Register with empty name")
	}
	if !e.Virtual && e.New == nil {
		panic(fmt.Sprintf("transport: Register(%q) without factory", e.Name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[e.Name]; dup {
		panic(fmt.Sprintf("transport: Register(%q) twice", e.Name))
	}
	registry[e.Name] = e
}

// Lookup resolves a backend name.
func Lookup(name string) (Entry, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[name]
	return e, ok
}

// Names lists every registered backend name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register(Entry{Name: KindSim, Virtual: true})
	Register(Entry{Name: KindMem, New: func(nodes, ports int) (Transport, error) {
		return newMem(nodes, ports), nil
	}})
	Register(Entry{Name: KindUDP, New: func(nodes, ports int) (Transport, error) {
		return newUDP(nodes, ports)
	}})
	Register(Entry{Name: KindTCP, New: func(nodes, ports int) (Transport, error) {
		return newTCP(nodes, ports)
	}})
}

// New builds a transport for nodes × ports endpoints by registry lookup.
// Virtual backends (the DES kernel's "sim") have no transport object and
// are rejected here; resolve them before reaching for New.
func New(kind string, nodes, ports int) (Transport, error) {
	e, ok := Lookup(kind)
	if !ok {
		return nil, fmt.Errorf("transport: unknown kind %q (have %s)",
			kind, strings.Join(Names(), ", "))
	}
	if e.Virtual {
		return nil, fmt.Errorf("transport: kind %q is virtual (no transport object)", kind)
	}
	return e.New(nodes, ports)
}

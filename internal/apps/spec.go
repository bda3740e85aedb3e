package apps

import (
	"errors"
	"fmt"

	"godsm/internal/core"
	"godsm/internal/kvload"
	"godsm/internal/metrics"
	"godsm/internal/netsim"
	"godsm/internal/sim"
)

// Spec describes one run declaratively. It is the body of cmd/dsmd's
// POST /v1/runs, and cmd/dsmrun builds one from its flags. A field left
// unset keeps its default; a field that is set is validated, so an
// explicit zero is a value like any other, never "the default".
//
// Resolve states only what is the spec's own: name parsing, defaults,
// and that seq runs on one node. Every other rule lives with the layer
// it protects — cluster size, transport and fault plan in core
// (core.Config.Validate), the app's own limits in this package — and
// Resolve applies them all before anything runs.
type Spec struct {
	App   string `json:"app"`             // barnes expl fft jacobi shallow sor swm tomcat kv
	Proto string `json:"proto"`           // seq lmw-i lmw-u bar-i bar-u bar-s bar-m adaptive
	Procs *int   `json:"procs,omitempty"` // default 8; seq always runs on 1
	Small bool   `json:"small,omitempty"` // reduced application size
	// Transport selects the backend by internal/transport registry name:
	// "sim" (or empty) keeps the virtual-time simulator; a real backend
	// ("mem", "udp", "tcp") runs the cluster on the wall clock.
	Transport string `json:"transport,omitempty"`
	// Timeline attaches the per-epoch statistics history to the report.
	Timeline bool `json:"timeline,omitempty"`
	// PageStats attaches per-page attribution to the report.
	PageStats bool       `json:"page_stats,omitempty"`
	Faults    *FaultSpec `json:"faults,omitempty"`
	// KV parameterizes the datastore workload; only legal with app "kv".
	KV *KVSpec `json:"kv,omitempty"`
}

// FaultSpec arms deterministic fault injection on every remote packet.
// It is also the body of cmd/dsmd's PATCH /v1/runs/{id}/faults.
type FaultSpec struct {
	Loss    float64 `json:"loss,omitempty"`    // drop fraction of remote packets
	Dup     float64 `json:"dup,omitempty"`     // duplicate fraction
	Reorder float64 `json:"reorder,omitempty"` // delay (reorder) fraction
	// DelayNs bounds the extra latency for reordered packets (0 = 500µs);
	// with Reorder 0 and DelayNs > 0, every packet is delayed.
	DelayNs int64  `json:"delay_ns,omitempty"`
	Seed    *int64 `json:"seed,omitempty"` // schedule seed; default 1
	// Crashes schedules crash-stop failures: node N dies at barrier
	// epoch E and, when restart_after is given, rejoins that many epochs
	// later (restart_after 0 restarts in place; omitted means the node
	// never comes back).
	Crashes []CrashSpec `json:"crashes,omitempty"`
	// Stragglers slow nodes' modeled compute. cmd/dsmrun's -straggler
	// sets them; they have no JSON form.
	Stragglers []netsim.StragglerRule `json:"-"`
}

// CrashSpec is one crash-stop rule in a FaultSpec.
type CrashSpec struct {
	Node         int  `json:"node"`
	Epoch        int  `json:"epoch"`
	RestartAfter *int `json:"restart_after,omitempty"`
}

// KVSpec carries the kv workload's traffic parameters (see KVConfig).
// Unset fields keep KVDefault's values, or KVSmall's for a small run.
type KVSpec struct {
	Ops        *int     `json:"ops,omitempty"`         // total op budget
	Keys       *int     `json:"keys,omitempty"`        // key-space size
	Shards     *int     `json:"shards,omitempty"`      // hash-shard count
	Streams    *int     `json:"streams,omitempty"`     // request streams
	Dist       string   `json:"dist,omitempty"`        // uniform, zipf=S, hotset=FRAC/KEYS
	Mix        string   `json:"mix,omitempty"`         // write=F,scan=F,scanlen=N
	Write      *float64 `json:"write,omitempty"`       // put fraction override
	Epochs     *int     `json:"epochs,omitempty"`      // measured epochs
	Seed       *uint64  `json:"seed,omitempty"`        // traffic seed
	StatsEvery *int     `json:"stats_every,omitempty"` // stats-epoch period
	Locks      bool     `json:"locks,omitempty"`       // per-shard locks (lmw only)
}

// A Run is a resolved Spec: RunWithContext(ctx, Procs, Proto, Opts) on
// App executes it.
type Run struct {
	App   *App
	Proto core.ProtocolKind
	Procs int
	Opts  RunOpts
}

// A FieldError is a spec that Resolve rejects. Field is the offending
// field's JSON path ("procs", "kv.shards", "faults.crashes").
type FieldError struct {
	Field  string
	format string
	args   []any
}

// field is a format argument naming another spec field, so that In
// spells it the way the front end does.
type field string

func fieldErr(name, format string, args ...any) *FieldError {
	return &FieldError{Field: name, format: format, args: args}
}

func (e *FieldError) Error() string { return e.In(func(f string) string { return f }) }

// In renders the error with every field it mentions spelled by name: a
// front end that takes flags instead of JSON says "-kv-shards", not
// "kv.shards".
func (e *FieldError) In(name func(string) string) string {
	args := make([]any, len(e.args))
	for i, a := range e.args {
		if f, ok := a.(field); ok {
			a = name(string(f))
		}
		args[i] = a
	}
	return name(e.Field) + " " + fmt.Sprintf(e.format, args...)
}

// Resolve applies every rule a run must pass and builds it, or returns a
// *FieldError naming the first field at fault. It fills in s.Procs and
// normalizes s.Transport ("sim" becomes ""), so s then reads as what
// runs. reg, which may be nil, receives the run's metrics, kv's
// godsm_kv_* series included.
func (s *Spec) Resolve(reg *metrics.Registry) (*Run, error) {
	proto, err := core.ParseProtocol(s.Proto)
	if err != nil {
		return nil, fieldErr("proto", "%q: unknown protocol", s.Proto)
	}
	if s.Procs == nil || proto == core.ProtoSeq {
		n := 8
		if proto == core.ProtoSeq {
			n = 1
		}
		s.Procs = &n
	}
	app, err := s.app(reg)
	if err != nil {
		return nil, err
	}
	plan, err := s.Faults.plan()
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Procs: *s.Procs, Protocol: proto, SegmentBytes: app.SegmentBytes, Transport: s.Transport, Faults: plan}
	if err := cfg.Validate(); err != nil {
		var ce *core.ConfigError
		if errors.As(err, &ce) && specFields[ce.Field] != "" {
			return nil, fieldErr(specFields[ce.Field], "%s", ce.Msg)
		}
		return nil, err
	}
	if err := app.fits(cfg.Procs, proto); err != nil {
		return nil, err
	}
	s.Transport = cfg.Transport
	return &Run{App: app, Proto: proto, Procs: cfg.Procs, Opts: RunOpts{
		Timeline: s.Timeline, PageStats: s.PageStats, Transport: cfg.Transport, Faults: plan, Metrics: reg}}, nil
}

// specFields names the spec field behind each core.Config field a spec
// sets.
var specFields = map[string]string{
	"Procs":                   "procs",
	"Transport":               "transport",
	"Faults.Rules[0].Drop":    "faults.loss",
	"Faults.Rules[0].Dup":     "faults.dup",
	"Faults.Rules[0].Reorder": "faults.reorder",
	"Faults.Rules[0].Delay":   "faults.delay_ns",
	"Faults.Crashes":          "faults.crashes",
	"Faults.Stragglers":       "faults.stragglers",
}

// app builds the named application, kv from the spec's kv section.
func (s *Spec) app(reg *metrics.Registry) (*App, error) {
	if s.App != "kv" {
		if s.KV != nil {
			return nil, fieldErr("kv", "parameters only apply to %s kv (got %s %s)", field("app"), field("app"), s.App)
		}
		return find(s.App, s.Small)
	}
	cfg := KVDefault()
	if s.Small {
		cfg = KVSmall()
	}
	cfg.Metrics = reg
	if k := s.KV; k != nil {
		set(&cfg.Ops, k.Ops)
		set(&cfg.Keys, k.Keys)
		set(&cfg.Shards, k.Shards)
		set(&cfg.Streams, k.Streams)
		set(&cfg.Measure, k.Epochs)
		set(&cfg.Seed, k.Seed)
		set(&cfg.StatsEvery, k.StatsEvery)
		cfg.Locks = k.Locks
		var err error
		if k.Dist != "" {
			if cfg.Dist, err = kvload.ParseDist(k.Dist); err != nil {
				return nil, fieldErr("kv.dist", "%v", err)
			}
		}
		if k.Mix != "" {
			if cfg.Mix, err = kvload.ParseMix(k.Mix); err != nil {
				return nil, fieldErr("kv.mix", "%v", err)
			}
		}
		if k.Write != nil {
			cfg.Mix.Write = *k.Write
			if err := cfg.Mix.Validate(); err != nil {
				return nil, fieldErr("kv.write", "%v", err)
			}
		}
	}
	return KV(cfg)
}

// set overwrites *dst with *v when v is set.
func set[T any](dst, v *T) {
	if v != nil {
		*dst = *v
	}
}

// plan converts f to the netsim plan; nil when f arms nothing.
func (f *FaultSpec) plan() (*netsim.FaultPlan, error) {
	if f == nil {
		return nil, nil
	}
	plan := &netsim.FaultPlan{Seed: 1, Stragglers: f.Stragglers}
	set(&plan.Seed, f.Seed)
	if f.Loss != 0 || f.Dup != 0 || f.Reorder != 0 || f.DelayNs != 0 {
		reorder := f.Reorder
		if reorder == 0 && f.DelayNs > 0 {
			reorder = 1 // a delay alone delays every packet
		}
		plan.Rules = []netsim.FaultRule{{From: netsim.AnyNode, To: netsim.AnyNode,
			Drop: f.Loss, Dup: f.Dup, Reorder: reorder, Delay: sim.Duration(f.DelayNs)}}
	}
	for _, c := range f.Crashes {
		rule := netsim.CrashRule{Node: c.Node, Epoch: c.Epoch, RestartAfter: -1}
		if c.RestartAfter != nil {
			if *c.RestartAfter < 0 {
				return nil, fieldErr("faults.crashes.restart_after", "%d: must be >= 0 (omit it for a node that never restarts)", *c.RestartAfter)
			}
			rule.RestartAfter = *c.RestartAfter
		}
		plan.Crashes = append(plan.Crashes, rule)
	}
	if len(plan.Rules)+len(plan.Stragglers)+len(plan.Crashes) == 0 {
		return nil, nil
	}
	return plan, nil
}

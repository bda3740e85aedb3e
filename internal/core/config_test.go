package core

import (
	"errors"
	"testing"

	"godsm/internal/netsim"
)

// TestValidate holds every Config rule to the field it names. Each case
// starts from a valid 4-node bar-u config; want "" means it must pass.
func TestValidate(t *testing.T) {
	rule := func(r netsim.FaultRule) *netsim.FaultPlan {
		r.From, r.To = netsim.AnyNode, netsim.AnyNode
		return &netsim.FaultPlan{Rules: []netsim.FaultRule{r}}
	}
	straggler := func(s netsim.StragglerRule) *netsim.FaultPlan {
		return &netsim.FaultPlan{Stragglers: []netsim.StragglerRule{s}}
	}
	crash := func(restart int) *netsim.FaultPlan {
		return crashFaults(netsim.CrashRule{Node: 2, Epoch: 3, RestartAfter: restart})
	}
	cases := []struct {
		name string
		edit func(*Config)
		want string // ConfigError.Field, or "" for a valid config
	}{
		{"valid", func(c *Config) {}, ""},
		{"zero procs", func(c *Config) { c.Procs = 0 }, "Procs"},
		{"procs past the copyset bound", func(c *Config) { c.Procs = MaxNodes + 1 }, "Procs"},
		{"no segment", func(c *Config) { c.SegmentBytes = 0 }, "SegmentBytes"},
		{"unknown backend", func(c *Config) { c.Transport = "rdma" }, "Transport"},
		{"sim is the simulator", func(c *Config) { c.Transport = "sim" }, ""},
		{"seq over a transport", func(c *Config) { c.Procs, c.Protocol, c.Transport = 1, ProtoSeq, "mem" }, "Transport"},
		{"fanout over a transport", func(c *Config) { c.BarrierFanout, c.Transport = 2, "mem" }, "BarrierFanout"},
		{"drop above one", func(c *Config) { c.Faults = rule(netsim.FaultRule{Drop: 1.5}) }, "Faults.Rules[0].Drop"},
		{"negative dup", func(c *Config) { c.Faults = rule(netsim.FaultRule{Dup: -0.5}) }, "Faults.Rules[0].Dup"},
		{"reorder above one", func(c *Config) { c.Faults = rule(netsim.FaultRule{Reorder: 2}) }, "Faults.Rules[0].Reorder"},
		{"negative delay", func(c *Config) { c.Faults = rule(netsim.FaultRule{Reorder: 1, Delay: -1}) }, "Faults.Rules[0].Delay"},
		{"inert straggler", func(c *Config) { c.Faults = straggler(netsim.StragglerRule{Node: 1, Factor: 0.5}) }, "Faults.Stragglers"},
		{"straggler off the cluster", func(c *Config) { c.Faults = straggler(netsim.StragglerRule{Node: 4, Factor: 2}) }, "Faults.Stragglers"},
		{"straggler before epoch 0", func(c *Config) { c.Faults = straggler(netsim.StragglerRule{Node: 1, Factor: 2, FromEpoch: -1}) }, "Faults.Stragglers"},
		{"empty straggler window", func(c *Config) {
			c.Faults = straggler(netsim.StragglerRule{Node: 1, Factor: 2, FromEpoch: 5, ToEpoch: 3})
		}, "Faults.Stragglers"},
		{"straggler over a transport", func(c *Config) {
			c.Faults, c.Transport = straggler(netsim.StragglerRule{Node: netsim.AnyNode, Factor: 2}), "mem"
		}, "Faults.Stragglers"},
		{"crash that never restarts over mem", func(c *Config) { c.Faults, c.Transport = crash(-1), "mem" }, "Faults.Crashes"},
		{"delayed restart over tcp", func(c *Config) { c.Faults, c.Transport = crash(2), "tcp" }, "Faults.Crashes"},
		{"in-place restart over mem", func(c *Config) { c.Faults, c.Transport = crash(0), "mem" }, ""},
	}
	for _, tc := range cases {
		cfg := stencilConfig(4, ProtoBarU)
		tc.edit(&cfg)
		err := cfg.Validate()
		var ce *ConfigError
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && !errors.As(err, &ce):
			t.Errorf("%s: error %v, want a ConfigError naming %s", tc.name, err, tc.want)
		case tc.want != "" && ce.Field != tc.want:
			t.Errorf("%s: error names %s (%v), want %s", tc.name, ce.Field, err, tc.want)
		}
	}
}

package apps

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"godsm/internal/core"
	"godsm/internal/netsim"
)

func decodeSpec(t *testing.T, body string) *Spec {
	t.Helper()
	var s Spec
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	return &s
}

// TestResolveNamesTheField holds every rejection reason to the spec field
// it names: that name is what dsmd returns and what dsmrun spells as a
// flag.
func TestResolveNamesTheField(t *testing.T) {
	cases := []struct {
		body  string
		field string
	}{
		{`{"app":"jacobi","proto":"bar-x"}`, "proto"},
		{`{"app":"nope","proto":"bar-u"}`, "app"},
		{`{"app":"jacobi","proto":"bar-u","kv":{"ops":100}}`, "kv"},
		{`{"app":"barnes","proto":"bar-s","small":true}`, "proto"},
		{`{"app":"barnes","proto":"bar-m","small":true}`, "proto"},
		{`{"app":"jacobi","proto":"bar-u","procs":0}`, "procs"},
		{`{"app":"jacobi","proto":"bar-u","procs":-2}`, "procs"},
		{`{"app":"jacobi","proto":"bar-u","procs":1000}`, "procs"},
		{`{"app":"jacobi","proto":"bar-u","transport":"rdma"}`, "transport"},
		{`{"app":"jacobi","proto":"seq","transport":"mem"}`, "transport"},
		{`{"app":"jacobi","proto":"bar-u","faults":{"loss":1.5}}`, "faults.loss"},
		{`{"app":"jacobi","proto":"bar-u","faults":{"loss":-0.1}}`, "faults.loss"},
		{`{"app":"jacobi","proto":"bar-u","faults":{"dup":-0.5}}`, "faults.dup"},
		{`{"app":"jacobi","proto":"bar-u","faults":{"reorder":2}}`, "faults.reorder"},
		{`{"app":"jacobi","proto":"bar-u","faults":{"delay_ns":-1}}`, "faults.delay_ns"},
		{`{"app":"jacobi","proto":"bar-u","procs":4,"faults":{"crashes":[{"node":0,"epoch":3}]}}`, "faults.crashes"},
		{`{"app":"jacobi","proto":"bar-u","procs":4,"faults":{"crashes":[{"node":4,"epoch":3}]}}`, "faults.crashes"},
		{`{"app":"jacobi","proto":"bar-u","procs":4,"faults":{"crashes":[{"node":2,"epoch":0}]}}`, "faults.crashes"},
		{`{"app":"jacobi","proto":"bar-u","procs":4,"faults":{"crashes":[{"node":2,"epoch":3},{"node":2,"epoch":5}]}}`, "faults.crashes"},
		{`{"app":"jacobi","proto":"seq","faults":{"crashes":[{"node":1,"epoch":3}]}}`, "faults.crashes"},
		{`{"app":"jacobi","proto":"bar-u","procs":4,"transport":"mem","faults":{"crashes":[{"node":2,"epoch":3}]}}`, "faults.crashes"},
		{`{"app":"jacobi","proto":"bar-u","procs":4,"faults":{"crashes":[{"node":2,"epoch":3,"restart_after":-1}]}}`, "faults.crashes.restart_after"},
		{`{"app":"kv","proto":"bar-u","kv":{"ops":-1}}`, "kv.ops"},
		{`{"app":"kv","proto":"bar-u","kv":{"keys":0}}`, "kv.keys"},
		{`{"app":"kv","proto":"bar-u","kv":{"shards":0}}`, "kv.shards"},
		{`{"app":"kv","proto":"bar-u","kv":{"streams":0}}`, "kv.streams"},
		{`{"app":"kv","proto":"bar-u","kv":{"epochs":0}}`, "kv.epochs"},
		{`{"app":"kv","proto":"bar-u","kv":{"stats_every":0}}`, "kv.stats_every"},
		{`{"app":"kv","proto":"bar-u","kv":{"dist":"pareto"}}`, "kv.dist"},
		{`{"app":"kv","proto":"bar-u","kv":{"mix":"reads=1"}}`, "kv.mix"},
		{`{"app":"kv","proto":"bar-u","kv":{"write":1.5}}`, "kv.write"},
		{`{"app":"kv","proto":"bar-u","small":true,"procs":32}`, "kv.shards"},
		{`{"app":"kv","proto":"bar-u","kv":{"locks":true}}`, "kv.locks"},
	}
	for _, tc := range cases {
		_, err := decodeSpec(t, tc.body).Resolve(nil)
		var fe *FieldError
		if !errors.As(err, &fe) || fe.Field != tc.field {
			t.Errorf("%s: error %v, want one naming %s", tc.body, err, tc.field)
		}
	}

	s := decodeSpec(t, `{"app":"jacobi","proto":"bar-u","small":true,"transport":"mem"}`)
	s.Faults = &FaultSpec{Stragglers: []netsim.StragglerRule{{Node: 1, Factor: 2}}}
	if _, err := s.Resolve(nil); err == nil || !strings.HasPrefix(err.Error(), "faults.stragglers ") {
		t.Errorf("straggler over mem: error %v, want one naming faults.stragglers", err)
	}
}

// TestResolveDefaults: unset fields take their defaults, set ones are
// taken as given, zeros included, and the resolved spec reads as what
// runs.
func TestResolveDefaults(t *testing.T) {
	s := decodeSpec(t, `{"app":"jacobi","proto":"bar-u","small":true,"transport":"sim"}`)
	r, err := s.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Procs != 8 || *s.Procs != 8 || s.Transport != "" || r.Opts.Transport != "" || r.Opts.Faults != nil {
		t.Errorf("defaults: procs %d/%d, transport %q/%q, faults %v", r.Procs, *s.Procs, s.Transport, r.Opts.Transport, r.Opts.Faults)
	}

	s = decodeSpec(t, `{"app":"jacobi","proto":"seq","procs":4}`)
	if r, err = s.Resolve(nil); err != nil || r.Procs != 1 || *s.Procs != 1 || r.Proto != core.ProtoSeq {
		t.Errorf("seq: %v, procs %d", err, r.Procs)
	}

	s = decodeSpec(t, `{"app":"jacobi","proto":"bar-u","faults":{"seed":0,"delay_ns":300000}}`)
	if r, err = s.Resolve(nil); err != nil {
		t.Fatal(err)
	}
	if p := r.Opts.Faults; p.Seed != 0 || len(p.Rules) != 1 || p.Rules[0].Reorder != 1 {
		t.Errorf("an explicit seed 0 and a delay alone: plan %+v", p)
	}

	s = decodeSpec(t, `{"app":"kv","proto":"lmw-i","small":true,"procs":4,"kv":{"ops":0,"shards":4,"locks":true}}`)
	if r, err = s.Resolve(nil); err != nil {
		t.Fatal(err)
	}
	if kv := r.App.kv; kv.Ops != 0 || kv.Shards != 4 || !kv.Locks || kv.Keys != KVSmall().Keys {
		t.Errorf("kv config %+v", kv)
	}
}

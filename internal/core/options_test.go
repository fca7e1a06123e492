package core

import (
	"testing"

	"repro/internal/cdfg"
)

func TestFlowStringsAndOrder(t *testing.T) {
	want := map[Flow]string{
		FlowBasic: "basic",
		FlowACMAP: "basic+ACMAP",
		FlowECMAP: "basic+ACMAP+ECMAP",
		FlowCAB:   "basic+ACMAP+ECMAP+CAB",
	}
	for f, s := range want {
		if f.String() != s {
			t.Errorf("%d.String() = %q, want %q", f, f.String(), s)
		}
	}
	if FlowBasic.memoryAware() {
		t.Error("basic is not memory aware")
	}
	for _, f := range []Flow{FlowACMAP, FlowECMAP, FlowCAB} {
		if !f.memoryAware() {
			t.Errorf("%s should be memory aware", f)
		}
	}
	fl := Flows()
	if len(fl) != 4 || fl[0] != FlowBasic || fl[3] != FlowCAB {
		t.Errorf("Flows() = %v", fl)
	}
}

func TestDefaultOptionsTraversal(t *testing.T) {
	// The paper's pairing: basic uses forward traversal, the aware flows
	// use weighted traversal.
	if DefaultOptions(FlowBasic).Traversal != cdfg.TraverseForward {
		t.Error("basic should default to forward traversal")
	}
	for _, f := range []Flow{FlowACMAP, FlowECMAP, FlowCAB} {
		if DefaultOptions(f).Traversal != cdfg.TraverseWeighted {
			t.Errorf("%s should default to weighted traversal", f)
		}
	}
}

func TestSanitize(t *testing.T) {
	o := Options{Flow: FlowCAB, DetFraction: 7, MaxHold: -1}
	o.sanitize()
	if o.BeamWidth < 1 || o.CandidateCap < 1 || o.SlackWindow < 1 {
		t.Error("sanitize must enforce positive search parameters")
	}
	if o.DetFraction != 0.5 {
		t.Errorf("DetFraction = %v", o.DetFraction)
	}
	if o.MaxHold < 1 || o.MaxSlack < o.SlackWindow {
		t.Error("sanitize bounds")
	}
	// An explicit traversal is respected on every flow, the basic one
	// included (the Fig 5 experiment and ModeWeighted rely on it).
	o = Options{Flow: FlowBasic, Traversal: cdfg.TraverseWeighted}
	o.sanitize()
	if o.Traversal != cdfg.TraverseWeighted {
		t.Error("explicit basic traversal should stick")
	}
}

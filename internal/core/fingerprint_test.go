package core

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestFingerprintCoversOptions pins that every exported Options field
// except the instrumentation pair (Obs, ObsTID) reaches the fingerprint:
// moving any one of them away from its default must change the key the
// mapping cache files results under. A new field of an unhandled kind
// fails here until the test (and Fingerprint) learn about it.
func TestFingerprintCoversOptions(t *testing.T) {
	base := DefaultOptions(FlowCAB)
	want := base.Fingerprint()
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		o := base
		v := reflect.ValueOf(&o).Elem().Field(i)
		switch f.Name {
		case "Obs":
			o.Obs = obs.NewRecorder(obs.NewRegistry(), nil)
		case "ObsTID":
			o.ObsTID = 7
		default:
			switch v.Kind() {
			case reflect.Int, reflect.Int64:
				v.SetInt(v.Int() ^ 1) // stays in range: 0↔1, 24↔25, 3↔2
			case reflect.Float64:
				v.SetFloat(v.Float() / 2)
			case reflect.Bool:
				v.SetBool(!v.Bool())
			default:
				t.Fatalf("Options.%s: unhandled kind %s", f.Name, v.Kind())
			}
		}
		got := o.Fingerprint()
		if observational := f.Name == "Obs" || f.Name == "ObsTID"; observational != (got == want) {
			t.Errorf("Options.%s (observational=%t): fingerprint changed=%t\n%s\n%s",
				f.Name, observational, got != want, want, got)
		}
	}

	budget := base
	budget.ExactNodeBudget = DefaultExactNodeBudget
	if got := budget.Fingerprint(); got != want {
		t.Errorf("ExactNodeBudget 0 and DefaultExactNodeBudget fingerprint apart:\n%s\n%s", want, got)
	}
}

// TestFingerprintTable pins Fingerprint's bytes: the mapping cache keys
// on them, so a rendering change would orphan every stored entry. The
// rows are each flow's defaults and one set moving every field, with a
// DetFraction that renders in exponent form.
func TestFingerprintTable(t *testing.T) {
	custom := DefaultOptions(FlowECMAP)
	custom.Traversal = 0
	custom.BeamWidth = 7
	custom.DetFraction = 2.5e-05
	custom.Seed = -42
	custom.CandidateCap = 99
	custom.SlackWindow = 5
	custom.MaxSlack = 33
	custom.MaxHold = 2
	custom.Recompute = false
	custom.ExactNodeBudget = 1234
	for _, c := range []struct {
		opt  Options
		want string
	}{
		{DefaultOptions(FlowBasic), "flow=0;trav=0;beam=24;det=0.5;seed=1;cand=48;slack=4;maxslack=24;hold=3;recompute=true;exactbudget=200000"},
		{DefaultOptions(FlowACMAP), "flow=1;trav=1;beam=24;det=0.5;seed=1;cand=48;slack=4;maxslack=24;hold=3;recompute=true;exactbudget=200000"},
		{DefaultOptions(FlowECMAP), "flow=2;trav=1;beam=24;det=0.5;seed=1;cand=48;slack=4;maxslack=24;hold=3;recompute=true;exactbudget=200000"},
		{DefaultOptions(FlowCAB), "flow=3;trav=1;beam=24;det=0.5;seed=1;cand=48;slack=4;maxslack=24;hold=3;recompute=true;exactbudget=200000"},
		{custom, "flow=2;trav=0;beam=7;det=2.5e-05;seed=-42;cand=99;slack=5;maxslack=33;hold=2;recompute=false;exactbudget=1234"},
	} {
		if got := c.opt.Fingerprint(); got != c.want {
			t.Errorf("Fingerprint() = %q, want %q", got, c.want)
		}
	}
}

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

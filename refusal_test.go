package meissa

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// TestOptionRules holds the option table as data: each row names a field of
// Options or RegressInput, says why and the way out, and is what refuse
// returns for the one call of a set that breaks it, which breaks no other
// row; the calls no run needs to refuse break none.
func TestOptionRules(t *testing.T) {
	fields := map[string]bool{}
	for _, typ := range []reflect.Type{reflect.TypeOf(Options{}), reflect.TypeOf(RegressInput{})} {
		for i := 0; i < typ.NumField(); i++ {
			fields[typ.Field(i).Name] = true
		}
	}
	breaking := []call{ // the i-th breaks row i
		{opts: Options{Resume: true}},
		{store: true},
		{opts: Options{StoreWait: time.Second}},
		{regress: true, baseline: "b", oldRules: true, opts: Options{StorePath: "s"}},
		{regress: true},
		{regress: true, baseline: "b", oldRules: true, opts: Options{Checkpoint: "b"}},
		{regress: true, baseline: "b"},
	}
	if len(breaking) != len(optionRules) {
		t.Fatalf("%d calls for %d rows", len(breaking), len(optionRules))
	}
	for i, rule := range optionRules {
		if !fields[rule.r.At] || rule.r.Reason == "" || rule.r.Fix == "" {
			t.Errorf("row %d: %+v names no field, or no reason or way out", i, rule.r)
		}
		for j, c := range breaking {
			if got := rule.breaks(c); got != (i == j) {
				t.Errorf("row %d on call %d %+v: breaks = %v", i, j, c, got)
			}
		}
		var r *Refusal
		if err := refuse(breaking[i]); !errors.As(err, &r) || *r != rule.r {
			t.Errorf("refuse(call %d) = %v, want row %d's %+v", i, err, i, rule.r)
		}
	}
	for _, c := range []call{
		{},
		{opts: Options{Resume: true, Checkpoint: "c"}},
		{store: true, opts: Options{StorePath: "s", Resume: true}}, // no run to resume
		{regress: true, opts: Options{StorePath: "s", Checkpoint: "c"}},
		{regress: true, baseline: "b", oldRules: true, opts: Options{Checkpoint: "c"}},
		{opts: Options{StorePath: "s", StoreWait: time.Second}},
	} {
		if err := refuse(c); err != nil {
			t.Errorf("refuse(%+v) = %v, want nil", c, err)
		}
	}
}

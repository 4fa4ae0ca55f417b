package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseFlagsRejects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-sweep", "500"}, "-sweep needs exactly one selected experiment"},
		{[]string{"-only", "E17,E18", "-sweep", "4"}, "-sweep needs exactly one selected experiment"},
		{[]string{"-only", "E1", "-sweep", "4"}, "-sweep needs exactly one selected experiment"},
		{[]string{"-only", "E18", "-sweep", "500,x"}, `-sweep: "x" is not a positive integer`},
		{[]string{"-only", "E18", "-sweep", "0"}, `-sweep: "0" is not a positive integer`},
		{[]string{"-workers", "-1"}, "-workers must be >= 0"},
		{[]string{"-only", "E99"}, `-only: unknown experiment "E99"`},
		{[]string{"-only", "E18,E99"}, `-only: unknown experiment "E99"`},
		{[]string{"-only", "E1,"}, `-only: unknown experiment ""`},
		{[]string{"-seeds", "2", "-json", "-"}, "-json requires single-seed mode"},
		{[]string{"-seeds", "2", "-trace", "t.json"}, "-trace requires single-seed mode"},
		{[]string{"-only", "E1", "extra"}, "unexpected arguments"},
	} {
		_, err := parseFlags(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseFlags(%q) error = %v, want it to contain %q", tc.args, err, tc.want)
		}
	}
}

// The sweep reaches only the one selected sweep spec and -workers only
// the specs with a workers axis.
func TestParseFlagsRoutesAxes(t *testing.T) {
	// Two sweep specs are fine as long as -sweep is not given.
	if _, err := parseFlags([]string{"-only", "E17,E19", "-workers", "8"}); err != nil {
		t.Fatal(err)
	}
	o, err := parseFlags([]string{"-only", "e1, E18,E21", "-workers", "8", "-sweep", "500,5000"})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, s := range o.specs {
		ids = append(ids, s.ID)
	}
	if !reflect.DeepEqual(ids, []string{"E1", "E18", "E21"}) {
		t.Fatalf("selected %v", ids)
	}
	e1, e18, e21 := o.params(o.specs[0]), o.params(o.specs[1]), o.params(o.specs[2])
	if e1.Workers != 0 || e1.Sweep != nil {
		t.Errorf("E1 has no axes, got %+v", e1)
	}
	if e18.Workers != 8 || !reflect.DeepEqual(e18.Sweep, []int{500, 5000}) {
		t.Errorf("E18 params %+v", e18)
	}
	if e21.Workers != 8 || e21.Sweep != nil {
		t.Errorf("E21 params %+v", e21)
	}
	if e18.Observe != nil {
		t.Error("Observe must stay nil without -progress")
	}
}

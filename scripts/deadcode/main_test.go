package main

import (
	"reflect"
	"testing"
)

// TestFixture pins which of the fixture's identifiers the gate flags: the
// unused func, the func only its own package's tests call, and the
// interface method only tests call together with its implementation —
// but not the func another package's test calls, a used type's String,
// nor the two implementations of a generic interface that is only ever
// called through an instantiation the source does not spell out. The
// option shim's uses are flagged outside bench/ and its scenario files.
func TestFixture(t *testing.T) {
	got, err := Analyze("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	want := []Finding{
		{"a.Unused", "internal/a/a.go", 7},
		{"a.OwnTestOnly", "internal/a/a.go", 10},
		{"a.Picker.Pick", "internal/a/a.go", 18},
		{"a.picker.Pick", "internal/a/a.go", 23},
		{"experiment.New (bench/-only option shim)", "cmd/app/main.go", 13},
		{"experiment.New (bench/-only option shim)", "internal/experiment/config.go", 5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flagged %v, want %v", got, want)
	}
}

// Package a holds one identifier of each kind the deadcode gate judges.
package a

import "fmt"

// Unused has no caller anywhere: flagged.
func Unused() {}

// OwnTestOnly is called only by this package's tests: flagged.
func OwnTestOnly() int { return 1 }

// OtherTestOnly is called only by another package's test, which counts.
func OtherTestOnly() int { return 2 }

// Picker is used, but its Pick is called only by tests: Pick is flagged
// here and on its implementation.
type Picker interface {
	Pick() int
}

type picker struct{}

func (picker) Pick() int { return 3 }

// New returns the Picker.
func New() Picker { return picker{} }

// Kind is used, so its String counts as used with it.
type Kind int

func (k Kind) String() string { return fmt.Sprintf("kind-%d", int(k)) }

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

// hooks is a generic interface whose method is called only through the
// field of a core instantiation: Ints.hook and Strings.hook satisfy
// hooks[int] and hooks[string], which the source never spells out.
type hooks[T any] interface {
	hook() T
}

type core[T any] struct{ h hooks[T] }

// Run calls the hook.
func (c *core[T]) Run() T { return c.h.hook() }

// Ints runs an int hook.
type Ints struct{ core[int] }

func (*Ints) hook() int { return 4 }

// NewInts returns an Ints whose core calls its hook.
func NewInts() *Ints {
	p := &Ints{}
	p.h = p
	return p
}

// Strings runs a string hook.
type Strings struct{ core[string] }

func (*Strings) hook() string { return "5" }

// NewStrings returns a Strings whose core calls its hook.
func NewStrings() *Strings {
	p := &Strings{}
	p.h = p
	return p
}

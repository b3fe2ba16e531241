// Package experiment holds the fixture's option shim: New and the With*
// options may be used only from bench/ and this package's scenario files.
package experiment

// New is used from bench/ and, against the rule, from cmd/app: that use
// is flagged.
func New(opts ...Option) int { return len(opts) }

// Option is used only where the shim may be.
type Option func() int

// WithSeed is used only where the shim may be.
func WithSeed(seed int) Option { return func() int { return seed } }

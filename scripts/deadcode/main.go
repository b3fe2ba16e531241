// Command deadcode lists every package-level func, type, var, const and
// method under internal/ and cmd/ that nothing uses outside its own
// package's _test.go files:
//
//	go run ./scripts/deadcode [root]    # or: make deadcode
//
// It prints one "pkg.Name  file:line" line per finding and exits 1 when
// there is any, 0 when there is none, 2 when the tree does not load.
//
// A use anywhere else counts: the package's own non-test code, any other
// package and its tests, bench/ (a nested module), examples/ and every
// cmd/. Uses inside a declaration's own body, and uses of a type inside
// its own methods, do not. A method also counts as used when an interface
// method it satisfies is used (so an interface method called only by
// tests is flagged together with every implementation), and when it
// satisfies a standard-library interface (String, Error, Len/Less/Swap,
// ServeHTTP, ...) on a type that is used.
//
// It also lists every use of internal/experiment's option layer (New,
// Option, Scenario and the With* options) outside bench/ and the files
// that declare and test it, internal/experiment/scenario*.go: only bench/
// still compiles against it, and everything else builds a Config literal.
//
// The rule is a use count, not reachability: a function called only by a
// dead function is not flagged until the dead one is gone, so clear the
// list to a fixpoint. Only the standard library's go/parser, go/build and
// go/types are used; imports outside the tree are type-checked from
// source.
package main

import (
	"fmt"
	"os"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	found, err := Analyze(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	for _, f := range found {
		fmt.Println(f)
	}
	if len(found) > 0 {
		fmt.Fprintf(os.Stderr, "deadcode: %d findings (identifiers with no use outside their own package's tests, or option-shim uses outside bench/)\n", len(found))
		os.Exit(1)
	}
	fmt.Println("deadcode: OK (every identifier under internal/ and cmd/ has a use outside its own tests; the option shim is used only from bench/)")
}

// Command app is the fixture's binary.
package main

import (
	"fmt"

	"fixture/internal/a"
)

func main() { fmt.Println(a.New(), a.Kind(1), a.NewInts().Run(), a.NewStrings().Run()) }

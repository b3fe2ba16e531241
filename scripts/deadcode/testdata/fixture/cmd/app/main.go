// Command app is the fixture's binary.
package main

import (
	"fmt"

	"fixture/internal/a"
	"fixture/internal/experiment"
)

func main() {
	fmt.Println(a.New(), a.Kind(1), a.NewInts().Run(), a.NewStrings().Run())
	fmt.Println(experiment.Run(), experiment.New())
}

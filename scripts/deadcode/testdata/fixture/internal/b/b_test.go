package b

import (
	"testing"

	"fixture/internal/a"
)

func TestB(t *testing.T) {
	if a.OtherTestOnly() != 2 {
		t.Fatal("fixture")
	}
}

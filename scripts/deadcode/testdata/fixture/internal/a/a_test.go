package a

import "testing"

func TestA(t *testing.T) {
	if OwnTestOnly() != 1 || New().Pick() != 3 {
		t.Fatal("fixture")
	}
}

package lib

import (
	"testing"

	"unreached/internal/support"
)

func TestOnlyTest(t *testing.T) {
	if OnlyTest() != support.One() {
		t.Fatal("OnlyTest")
	}
}

func BenchmarkKept(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Kept()
	}
}

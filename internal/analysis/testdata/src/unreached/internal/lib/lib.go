// Package lib has one declaration per clause of the reachability rule.
package lib

// OnlyTest is referenced from lib_test.go and nowhere else.
func OnlyTest() int { return 1 } // want "OnlyTest is reached by no non-test file"

// Cross is referenced from another package's non-test file.
func Cross() { Intra() }

// Intra is referenced only inside its own package.
func Intra() {}

// Loop is referenced only inside its own declaration.
func Loop(n int) int { // want "Loop is reached by no non-test file"
	if n == 0 {
		return 0
	}
	return Loop(n - 1)
}

// Lonely is mentioned only by the receiver of its own method.
type Lonely struct{} // want "Lonely is reached by no non-test file"

// Touch has no caller.
func (Lonely) Touch() {} // want "Lonely.Touch is reached by no non-test file"

// Square is referenced from cmd/app.
type Square struct{ Side float64 }

// Area has no caller by name: iface.Measurer, declared elsewhere, needs it.
func (s Square) Area() float64 { return s.Side * s.Side }

// String has no caller by name: fmt.Stringer needs it.
func (s Square) String() string { return "square" }

// Perimeter satisfies no interface and has no caller.
func (s Square) Perimeter() float64 { return 4 * s.Side } // want "Square.Perimeter is reached by no non-test file"

// Table is a value referenced from cmd/app; Spare is one nothing references.
var (
	Table = []int{1, 2, 3}
	Spare = 4 // want "Spare is reached by no non-test file"
)

// Kept says why it stays.
//
//detlint:reached benchmark: BenchmarkKept in lib_test.go calls it
func Kept() {}

// Bare carries a directive with no reason.
//
//detlint:reached
func Bare() {} // want "the reason must be one of benchmark, reference, support" "Bare is reached by no non-test file"

// Vague carries a reason that is none of the three.
//
//detlint:reached somebody may want it later
func Vague() {} // want "the reason must be one of benchmark, reference, support" "Vague is reached by no non-test file"

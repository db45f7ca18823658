package main

import "xcbc/internal/analysis"

// Analyzers is the detlint suite: exactly the six passes that prove the
// determinism and durability invariants. The meta-test pins this list —
// adding a seventh analyzer is a deliberate act, not a drive-by.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		analysis.Detclock,
		analysis.Detrand,
		analysis.Maporder,
		analysis.Errdrop,
		analysis.Lockcopy,
		analysis.Noglobals,
	}
}

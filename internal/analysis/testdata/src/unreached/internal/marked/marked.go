// Package marked carries directives that have gone stale.
//
//detlint:reached support: nothing, any more
package marked // want "package unreached/internal/marked is marked //detlint:reached but a non-test file imports it"

// Stale is marked although cmd/app reaches it.
//
//detlint:reached reference: a test that was deleted
const Stale = 1 // want "Stale is marked //detlint:reached but a non-test file reaches it"

// Imported is reached from cmd/app.
func Imported() int { return Stale }

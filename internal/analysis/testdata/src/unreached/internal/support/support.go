// Package support is imported only by lib_test.go and says so.
//
//detlint:reached support: internal/lib's TestOnlyTest compares against it
package support

// One is kept with its package.
func One() int { return 1 }

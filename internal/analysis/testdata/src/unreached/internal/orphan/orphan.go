// Package orphan is imported by no non-test file.
package orphan // want "package unreached/internal/orphan has no non-test importer"

// Adrift is reported with its package.
func Adrift() {} // want "Adrift is reached by no non-test file"

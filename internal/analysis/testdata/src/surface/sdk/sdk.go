// Package sdk re-exports internal/view's types by alias.
package sdk

import "surface/internal/view"

// Row aliases a named struct.
type Row = view.Row

// Rows aliases an unnamed type.
type Rows = []view.Row

// Reader aliases a named interface.
type Reader = view.Reader

// Count is a declared type, printed as before.
type Count int

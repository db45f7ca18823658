// Package view holds the types package sdk re-exports by alias.
package view

// Row is a struct with a value method, a pointer method and an unexported
// field.
type Row struct {
	ID   int
	Tags []Tag
	note string
}

// Tag labels a row.
type Tag string

// Len counts the row's tags.
func (r Row) Len() int { return len(r.Tags) + len(r.note) }

// Reset drops the row's tags.
func (r *Row) Reset() { r.Tags = nil }

// Reader yields rows.
type Reader interface {
	Read() Row
}

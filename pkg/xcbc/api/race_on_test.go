//go:build race

package api

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// quarter of what it is handed, so allocation ceilings over pooled paths do
// not hold and are only logged.
const raceEnabled = true

//go:build race

package verifier

// raceEnabled reports whether the race detector is compiled in. The
// steady-state allocation gate skips under -race: sync.Pool drops items at
// random there, so a pooled Verify allocates.
const raceEnabled = true

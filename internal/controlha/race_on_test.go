//go:build race

package controlha_test

// raceEnabled reports whether the race detector is compiled in. Alloc
// counts skip under -race: the detector's instrumentation allocates, and
// sync.Pool drops items at random.
const raceEnabled = true

//go:build race

package experiments

// raceEnabled reports whether the race detector is compiled in. Wall-clock
// comparisons skip under -race: the detector slows the two sides unevenly.
const raceEnabled = true

//go:build !simregression

package controlha

// rotateRingOnTakeover gates the rkey-rotation fence in takeOver. It
// is a const, not a flag: the only build that turns it off is the
// simregression one, which deliberately re-opens the historical
// stale-leader append window so the simulator can demonstrate it finds
// the bug (see internal/sim/scenario).
const rotateRingOnTakeover = true

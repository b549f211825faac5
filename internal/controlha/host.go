package controlha

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rdx/internal/mem"
	"rdx/internal/rdma"
)

// Arena layout of a standby host: the witness region first (8-aligned,
// padded to 64), then the replication ring (header + data), then the
// ha-chain region (the pre-posted lease-renew chain).
const hostWitnessBase = 0
const hostRingBase = 64

// Ha-chain MR layout (offsets within the ChainMRName region): one slot
// holding the lease-renew chain region (trigger/status/regs/program).
const (
	ChainMRName = "ha-chain"

	ChainRenewOff = 0
	ChainMRSize   = 1024
)

// Host is the standby-owned memory a leader replicates into: one arena
// behind one endpoint, exposing the witness MR (lease word + fencing
// epoch) and the journal ring MR. The standby itself touches this memory
// only with local reads (Pump) — all mutation arrives as one-sided verbs
// from whichever controller currently leads, so the host doubles as the
// election witness: no standby-side logic can disagree with the CAS
// outcomes in its own arena.
//
// The standby is hot: every pump folds what it copied into a running State,
// so a promotion replays the final pump's tail, not the history.
type Host struct {
	arena   *mem.Arena
	ep      *rdma.Endpoint
	ringCap uint64

	mu       sync.Mutex
	consumed uint64
	journal  []byte
	state    *State // fold of journal[:folded]
	folded   int
	foldErr  error // why the fold stopped at folded; latched unless ErrTruncated

	pumpMu   sync.Mutex
	pumpStop chan struct{}
	pumpDone chan struct{}
}

// NewHostWith creates a standby host with a journal ring of ringCap data
// bytes (DefaultRingCap if zero) and registers the witness and ring MRs.
// lat is the latency model on the host's endpoint, so simulated deployments
// pay a realistic per-verb cost on the replication and election paths (nil
// injects no delay). The journal ring and the lease words are the one
// serialization every publish of a control plane crosses — modeling their
// latency is what makes shard-scaling experiments honest about what
// sharding actually buys.
func NewHostWith(ringCap uint64, lat *rdma.LatencyModel) (*Host, error) {
	if ringCap == 0 {
		ringCap = DefaultRingCap
	}
	chainBase := hostRingBase + RingHdrSize + ringCap
	arena := mem.NewArena(int(chainBase + ChainMRSize))
	ep := rdma.NewEndpoint(arena, lat)
	if _, err := ep.RegisterMR(WitnessMRName, hostWitnessBase, WitnessSize, rdma.PermAll); err != nil {
		return nil, err
	}
	if _, err := ep.RegisterMR(RingMRName, hostRingBase, RingHdrSize+ringCap, rdma.PermAll); err != nil {
		return nil, err
	}
	if _, err := ep.RegisterMR(ChainMRName, chainBase, ChainMRSize, rdma.PermAll); err != nil {
		return nil, err
	}
	if err := arena.WriteQword(hostRingBase+ringOffMagic, RingMagic); err != nil {
		return nil, err
	}
	if err := arena.WriteQword(hostRingBase+ringOffCap, ringCap); err != nil {
		return nil, err
	}
	return &Host{arena: arena, ep: ep, ringCap: ringCap, state: NewState()}, nil
}

// Endpoint exposes the host's RNIC (for Serve / instrument wiring).
func (h *Host) Endpoint() *rdma.Endpoint { return h.ep }

// Serve accepts controller connections on l (blocking, like rdma.Endpoint.Serve).
func (h *Host) Serve(l net.Listener) error { return h.ep.Serve(l) }

// Close stops any background pump and tears down the host's endpoint.
func (h *Host) Close() {
	h.StopPump()
	h.ep.Close()
}

// RingCap returns the ring's data capacity in bytes.
func (h *Host) RingCap() uint64 { return h.ringCap }

// FenceRing rotates the journal ring's rkey, invalidating every rkey a
// previous leader resolved: its in-flight and future ring verbs fail with
// an access error (classified as ErrFencedAppend on the leader side)
// instead of landing. It returns the ring's new rkey. This is the
// RDMA-native fence a successor applies right after claiming the lease,
// before it touches the ring — unlike the epoch-word CAS check, it closes
// the window where a stale leader's already-reserved WRITE/commit races the
// successor's replay. The witness MR is deliberately NOT rotated: deposed
// leaders must still be able to read the epoch word to observe their own
// deposal (core.ErrFenced via Lease.Check).
func (h *Host) FenceRing() (uint32, error) {
	mr, err := h.ep.RotateMR(RingMRName)
	if err != nil {
		return 0, err
	}
	return mr.RKey, nil
}

// FenceChains rotates the ha-chain MR's rkey: a stale leader's pre-posted
// renew chain becomes untriggerable — the trigger verb itself fails with an
// access error before any resident step runs. TakeOver does not need it:
// once the successor's Steal lands, the stale chain's owner CAS and its
// witness-epoch guard both refuse.
func (h *Host) FenceChains() error {
	_, err := h.ep.RotateMR(ChainMRName)
	return err
}

// WitnessEpoch reads the fencing epoch word locally (invariant checkers;
// no verbs involved).
func (h *Host) WitnessEpoch() (uint64, error) {
	return h.arena.ReadQword(hostWitnessBase + witnessOffEpoch)
}

// CommittedBytes reads the committed ring prefix locally, without moving
// the consumption cursor — the raw material for cross-replica
// prefix-consistency checks. Fails with ErrRingOverrun once the ring has
// wrapped (the prefix is no longer fully resident).
func (h *Host) CommittedBytes() ([]byte, error) {
	hwm, err := h.arena.ReadQword(hostRingBase + ringOffHwm)
	if err != nil {
		return nil, err
	}
	if hwm > h.ringCap {
		return nil, fmt.Errorf("%w: hwm %d past capacity %d", ErrRingOverrun, hwm, h.ringCap)
	}
	return h.arena.Read(hostRingBase+RingHdrSize, int(hwm))
}

// Pump consumes newly committed ring bytes into the host's local journal
// copy and folds them into the host's State, returning how many bytes it
// advanced. Only bytes at or below the CAS-committed high-watermark are
// trusted; a gap larger than the ring's capacity means the oldest
// unconsumed bytes were overwritten before this standby read them —
// ErrRingOverrun, unrecoverable without a full journal transfer. A journal
// that does not replay is not a pump error: the bytes still accumulate, and
// State reports why.
func (h *Host) Pump() (uint64, error) {
	n, _, err := h.pump()
	return n, err
}

// pump is Pump, also counting the journal entries this call folded.
func (h *Host) pump() (n uint64, entries int, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	hwm, err := h.arena.ReadQword(hostRingBase + ringOffHwm)
	if err != nil {
		return 0, 0, err
	}
	if hwm <= h.consumed {
		return 0, 0, nil
	}
	n = hwm - h.consumed
	if n > h.ringCap {
		return 0, 0, fmt.Errorf("%w: %d committed bytes beyond consumption, capacity %d",
			ErrRingOverrun, n, h.ringCap)
	}
	pos := h.consumed % h.ringCap
	first := n
	if pos+n > h.ringCap {
		first = h.ringCap - pos
	}
	chunk, err := h.arena.Read(hostRingBase+RingHdrSize+pos, int(first))
	if err != nil {
		return 0, 0, err
	}
	h.journal = append(h.journal, chunk...)
	if first < n {
		rest, err := h.arena.Read(hostRingBase+RingHdrSize, int(n-first))
		if err != nil {
			return 0, 0, err
		}
		h.journal = append(h.journal, rest...)
	}
	h.consumed = hwm
	// Each entry is decoded, checksummed and sequence-checked once, here. A
	// tail ending mid-entry waits for the next pump; any other failure
	// latches, so State and every later takeover keep returning the error a
	// replay of JournalBytes would.
	if h.foldErr == nil || errors.Is(h.foldErr, ErrTruncated) {
		before := h.state.Entries
		took, ferr := h.state.Feed(h.journal[h.folded:])
		h.folded, h.foldErr = h.folded+took, ferr
		entries = h.state.Entries - before
	}
	return n, entries, nil
}

// JournalBytes snapshots the pumped journal copy.
func (h *Host) JournalBytes() []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]byte(nil), h.journal...)
}

// State returns a deep copy of the state folded from everything pumped so
// far: what Replay(JournalBytes()) would return, error class included,
// without touching the history again.
func (h *Host) State() (*State, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.foldErr != nil {
		return nil, fmt.Errorf("controlha: journal replay: %w", h.foldErr)
	}
	return h.state.clone(), nil
}

// pumpState pumps any freshly committed ring bytes, then snapshots the
// state; entries is how many journal entries that pump had to fold.
func (h *Host) pumpState() (*State, int, error) {
	_, entries, err := h.pump()
	if err != nil {
		return nil, 0, fmt.Errorf("controlha: standby pump: %w", err)
	}
	st, err := h.State()
	return st, entries, err
}

// Consumed returns how many replicated bytes this standby has pumped.
func (h *Host) Consumed() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.consumed
}

// StartPump begins pumping the replication ring into the local journal
// copy every interval (default 50ms), so a later promotion never depends
// on the ring still holding the whole history. Pump errors — including a
// fatal ring overrun — go to logf when non-nil. Starting an already
// pumping host is a no-op; StopPump (or Close) stops it.
func (h *Host) StartPump(interval time.Duration, logf func(format string, args ...interface{})) {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	h.pumpMu.Lock()
	defer h.pumpMu.Unlock()
	if h.pumpStop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	h.pumpStop, h.pumpDone = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if _, err := h.Pump(); err != nil && logf != nil {
					logf("controlha: standby pump: %v", err)
				}
			}
		}
	}()
}

// StopPump stops the background pump started by StartPump, waiting for the
// in-flight tick to finish. No-op if the pump is not running.
func (h *Host) StopPump() {
	h.pumpMu.Lock()
	stop, done := h.pumpStop, h.pumpDone
	h.pumpStop, h.pumpDone = nil, nil
	h.pumpMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

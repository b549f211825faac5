package controlha

import (
	"fmt"
	"maps"
	"slices"

	"rdx/internal/core"
)

// Key identifies one (node, hook) pair in replayed state.
type Key struct {
	Node string
	Hook string
}

// Intent is a staged-but-never-published deployment surviving in the
// journal — the work a successor re-drives after takeover. The stage's
// writes are idempotent and the artifact cache already holds the compiled
// binary, so re-driving costs no recompiles.
type Intent struct {
	Node    string
	Hook    string
	Name    string
	Digest  string
	Version uint64
	Blob    uint64
}

// State is the deterministic result of replaying a journal: exactly the
// bookkeeping a leader accumulated in core — the deployed-version map,
// per-hook rollback stacks (bounded at core.RollbackDepth, with reclamation
// tombstones), and the open (staged, unpublished) intents. Validate and
// compile entries are sequence- and checksum-checked like any other but
// leave no state: a successor's compiled artifacts come from the shared
// artifact.Cache, not from the journal.
type State struct {
	Versions  map[Key]core.DeployedVersion
	History   map[Key][]core.Deployed
	Open      []Intent
	Entries   int
	LastSeq   uint64
	LastFence uint64
}

// NewState returns the state of an empty journal, ready to Feed.
func NewState() *State {
	return &State{
		Versions: map[Key]core.DeployedVersion{},
		History:  map[Key][]core.Deployed{},
	}
}

// Feed decodes and applies, in order, every whole entry at the front of
// data, and returns how many bytes it folded in. It is the one replay body:
// Replay runs it once over a whole journal, a standby Host runs it over
// each pumped chunk. The fold is strict — sequence numbers must be
// contiguous from 1 and fencing epochs monotone non-decreasing — so a
// corrupted, spliced or reordered journal stops it with a typed error
// (ErrCorrupt / ErrBadSequence) instead of reconstructing divergent state.
// data ending mid-entry is ErrTruncated: everything before the partial
// entry is applied, and a caller that expects more bytes feeds
// data[consumed:] again once they arrive. Feeding the same bytes, however
// split, always yields the same State.
func (s *State) Feed(data []byte) (consumed int, err error) {
	for consumed < len(data) {
		e, n, err := DecodeEntry(data[consumed:])
		if err != nil {
			return consumed, fmt.Errorf("entry %d: %w", s.Entries+1, err)
		}
		if e.Seq != s.LastSeq+1 {
			return consumed, fmt.Errorf("%w: entry %d has seq %d, want %d",
				ErrBadSequence, s.Entries+1, e.Seq, s.LastSeq+1)
		}
		if e.Fence < s.LastFence {
			return consumed, fmt.Errorf("%w: entry %d fence %d regresses from %d",
				ErrBadSequence, s.Entries+1, e.Fence, s.LastFence)
		}
		consumed += n
		s.LastSeq = e.Seq
		s.LastFence = e.Fence
		s.apply(e)
		s.Entries++
	}
	return consumed, nil
}

// Replay folds a whole journal: Feed on a fresh State, required to consume
// every byte, so a truncated journal fails (ErrTruncated) like a corrupted
// one.
func Replay(data []byte) (*State, error) {
	s := NewState()
	if _, err := s.Feed(data); err != nil {
		return nil, err
	}
	return s, nil
}

// apply folds one entry into the state, mirroring what core's bookkeeping
// did when the entry was journaled.
func (s *State) apply(e Entry) {
	k := Key{Node: e.Node, Hook: e.Hook}
	switch e.Type {
	case EntryStage:
		s.Open = append(s.Open, Intent{Node: e.Node, Hook: e.Hook, Name: e.Name,
			Digest: e.Digest, Version: e.Version, Blob: e.Blob})
	case EntryPublish:
		d := core.Deployed{Blob: e.Blob, Version: e.Version, Name: e.Name,
			Digest: e.Digest, Reclaimed: e.Flags&1 != 0}
		s.History[k] = core.PushDeployed(s.History[k], d)
		// Same last-writer-wins guard as ControlPlane.recordDeployed:
		// versions come from the node's epoch FETCH_ADD, so the highest
		// wins regardless of journal interleaving across hooks.
		if cur, ok := s.Versions[k]; !ok || cur.Version <= e.Version {
			s.Versions[k] = core.DeployedVersion{Digest: e.Digest, Version: e.Version, Blob: e.Blob}
		}
		s.closeIntent(e)
	case EntryRollback:
		// Rollback pops the history stack and forces the version map past
		// the last-writer-wins guard, exactly like CodeFlow.Rollback.
		if h := s.History[k]; len(h) > 0 {
			s.History[k] = h[:len(h)-1]
		}
		s.Versions[k] = core.DeployedVersion{Digest: e.Digest, Version: e.Version, Blob: e.Blob}
	case EntryClaim:
		// The claimed blob's bytes are gone: tombstone every history entry
		// referencing it on that node (it may sit in other hooks' stacks).
		for hk, hist := range s.History {
			if hk.Node != e.Node {
				continue
			}
			for i := range hist {
				if hist[i].Blob == e.Blob {
					hist[i].Reclaimed = true
				}
			}
		}
	}
}

// closeIntent removes the open stage matched by a publish: same node,
// hook, and version.
func (s *State) closeIntent(e Entry) {
	for i, in := range s.Open {
		if in.Node == e.Node && in.Hook == e.Hook && in.Version == e.Version {
			s.Open = append(s.Open[:i], s.Open[i+1:]...)
			return
		}
	}
}

// clone deep-copies the state down to the history slices, so the running
// fold and a snapshot handed out can each be mutated freely.
func (s *State) clone() *State {
	out := *s
	out.Versions = maps.Clone(s.Versions)
	out.History = make(map[Key][]core.Deployed, len(s.History))
	for k, hist := range s.History {
		out.History[k] = slices.Clone(hist)
	}
	out.Open = slices.Clone(s.Open)
	return &out
}

// OpenFor returns the open intents targeting one node.
func (s *State) OpenFor(node string) []Intent {
	var out []Intent
	for _, in := range s.Open {
		if in.Node == node {
			out = append(out, in)
		}
	}
	return out
}

// ApplyTo installs the replayed state on a fresh control plane and its
// re-attached CodeFlows (keyed by CodeFlow.NodeKey()). The version map is
// restored verbatim; each history stack is restored on its flow, seeding
// the dispatch shadow and resident index from the live top entry. Flows
// the map doesn't cover keep only the version-map entries — their stacks
// reappear when the node is re-attached and restored later.
func (s *State) ApplyTo(cp *core.ControlPlane, flows map[string]*core.CodeFlow) {
	for k, dv := range s.Versions {
		cp.RestoreDeployed(k.Node, k.Hook, dv)
	}
	for k, stack := range s.History {
		if cf := flows[k.Node]; cf != nil {
			cf.RestoreHistory(k.Hook, stack)
		}
	}
}

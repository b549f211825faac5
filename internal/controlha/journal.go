// Package controlha replicates the RDX control plane using the fabric's
// own one-sided primitives — the same WRITE / CAS / FETCH_ADD verbs RDX
// uses to inject code into data-plane nodes also carry the controller's
// deployment journal to standbys, elect a leader through a CAS lease word,
// and fence a deposed leader out of every publish path.
//
// Three pieces compose:
//
//   - an append-only, checksummed deployment journal (Journal) recording
//     every control-plane intent and outcome, with a deterministic replay
//     (Replay) that reconstructs the deployed-version map and per-hook
//     rollback stacks on a fresh ControlPlane;
//   - journal replication (Replicator) into a standby-owned ring MR via
//     one-sided WRITEs: FETCH_ADD reserves ring space, a CAS commits the
//     high-watermark, and the standby pumps committed bytes with local
//     reads only;
//   - leader election (Lease) via a CAS lease word in a witness MR, with a
//     monotonically increasing fencing epoch threaded into core's publish
//     paths as a core.FenceCheck — the HA analogue of the wrapEpoch guard.
package controlha

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"rdx/internal/core"
	"rdx/internal/native"
	"rdx/internal/telemetry"
)

// Journal format errors. Replay fails with one of these — typed, never a
// panic — on any corrupted, truncated, or reordered input.
var (
	// ErrCorrupt reports a bad magic, an insane length, or a checksum
	// mismatch: the bytes are not a journal entry.
	ErrCorrupt = errors.New("controlha: corrupt journal entry")
	// ErrTruncated reports a well-formed prefix that ends mid-entry.
	ErrTruncated = errors.New("controlha: truncated journal")
	// ErrBadSequence reports entries whose sequence numbers are not
	// contiguous from 1 or whose fencing epochs regress — a reordered or
	// spliced journal must not replay into plausible-but-divergent state.
	ErrBadSequence = errors.New("controlha: broken journal sequence")
)

// EntryType discriminates journal records. Values are part of the wire
// format; append only.
type EntryType uint8

const (
	EntryInvalid  EntryType = iota
	EntryValidate           // validator ran for Digest
	EntryCompile            // JIT ran for (Digest, Arch)
	EntryStage              // blob staged (written, not dispatched) on (Node, Hook)
	EntryPublish            // dispatch CAS landed on (Node, Hook)
	EntryRollback           // hook reverted to a prior version
	EntryClaim              // standby blob claimed as a delta target on Node
	EntryReclaim            // Node's code ring wrapped; Epoch = new wrap epoch
	EntryHandoff            // shard rebalance barrier; Epoch = departing ring epoch
)

func (t EntryType) String() string {
	switch t {
	case EntryValidate:
		return "validate"
	case EntryCompile:
		return "compile"
	case EntryStage:
		return "stage"
	case EntryPublish:
		return "publish"
	case EntryRollback:
		return "rollback"
	case EntryClaim:
		return "claim"
	case EntryReclaim:
		return "reclaim"
	case EntryHandoff:
		return "handoff"
	}
	return fmt.Sprintf("entry(%d)", uint8(t))
}

// Entry is one journal record. Every type shares the field set; unused
// fields encode as zero/empty. Seq numbers are contiguous from 1 and Fence
// carries the leader's fencing epoch at append time, so replay can reject
// splices and a standby can observe exactly which leadership term produced
// each record.
type Entry struct {
	Type    EntryType
	Seq     uint64
	Fence   uint64
	Node    string
	Hook    string
	Name    string
	Digest  string
	Arch    uint32
	Version uint64
	Blob    uint64
	Epoch   uint64 // wrap epoch (EntryReclaim) / departing ring epoch (EntryHandoff)
	Flags   uint8  // bit 0: the referenced version was already Reclaimed
}

const (
	entryMagic  = 0x4A52 // "RJ"
	entryHdrLen = 2 + 1 + 1 + 8 + 8 + 4
	// maxEntryPayload bounds decoded payload lengths; node keys, hook names
	// and digests are all short, so anything near this is corruption.
	maxEntryPayload = 1 << 16
)

// appendString encodes s as u16 length + bytes.
func appendString(b []byte, s string) []byte {
	b = append(b, byte(len(s)), byte(len(s)>>8))
	return append(b, s...)
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// Encode serializes the entry:
//
//	[magic u16][type u8][flags u8][seq u64][fence u64][payloadLen u32]
//	[payload: node hook name digest (len-prefixed), arch u32, version u64,
//	 blob u64, epoch u64]
//	[crc32(IEEE) over header+payload u32]
func (e *Entry) Encode() []byte {
	payload := make([]byte, 0, 64)
	payload = appendString(payload, e.Node)
	payload = appendString(payload, e.Hook)
	payload = appendString(payload, e.Name)
	payload = appendString(payload, e.Digest)
	payload = appendU32(payload, e.Arch)
	payload = appendU64(payload, e.Version)
	payload = appendU64(payload, e.Blob)
	payload = appendU64(payload, e.Epoch)

	out := make([]byte, 0, entryHdrLen+len(payload)+4)
	out = append(out, byte(entryMagic&0xff), byte(entryMagic>>8))
	out = append(out, byte(e.Type), e.Flags)
	out = appendU64(out, e.Seq)
	out = appendU64(out, e.Fence)
	out = appendU32(out, uint32(len(payload)))
	out = append(out, payload...)
	return appendU32(out, crc32.ChecksumIEEE(out))
}

type decoder struct {
	b   []byte
	off int
}

func (d *decoder) u16() (uint16, bool) {
	if d.off+2 > len(d.b) {
		return 0, false
	}
	v := uint16(d.b[d.off]) | uint16(d.b[d.off+1])<<8
	d.off += 2
	return v, true
}

func (d *decoder) u32() (uint32, bool) {
	if d.off+4 > len(d.b) {
		return 0, false
	}
	v := uint32(d.b[d.off]) | uint32(d.b[d.off+1])<<8 |
		uint32(d.b[d.off+2])<<16 | uint32(d.b[d.off+3])<<24
	d.off += 4
	return v, true
}

func (d *decoder) u64() (uint64, bool) {
	lo, ok := d.u32()
	if !ok {
		return 0, false
	}
	hi, ok := d.u32()
	if !ok {
		return 0, false
	}
	return uint64(lo) | uint64(hi)<<32, true
}

func (d *decoder) str() (string, bool) {
	n, ok := d.u16()
	if !ok || d.off+int(n) > len(d.b) {
		return "", false
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s, true
}

// DecodeEntry parses one entry from the front of b, returning the entry
// and the number of bytes consumed. Truncation inside an otherwise valid
// frame is ErrTruncated; any structural or checksum violation is
// ErrCorrupt.
func DecodeEntry(b []byte) (Entry, int, error) {
	if len(b) < entryHdrLen {
		return Entry{}, 0, fmt.Errorf("%w: %d header bytes of %d", ErrTruncated, len(b), entryHdrLen)
	}
	d := &decoder{b: b}
	magic, _ := d.u16()
	if magic != entryMagic {
		return Entry{}, 0, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, magic)
	}
	var e Entry
	e.Type = EntryType(b[d.off])
	e.Flags = b[d.off+1]
	d.off += 2
	e.Seq, _ = d.u64()
	e.Fence, _ = d.u64()
	plen, _ := d.u32()
	if plen > maxEntryPayload {
		return Entry{}, 0, fmt.Errorf("%w: payload length %d", ErrCorrupt, plen)
	}
	total := entryHdrLen + int(plen) + 4
	if len(b) < total {
		return Entry{}, 0, fmt.Errorf("%w: entry needs %d bytes, have %d", ErrTruncated, total, len(b))
	}
	if e.Type == EntryInvalid || e.Type > EntryHandoff {
		return Entry{}, 0, fmt.Errorf("%w: unknown entry type %d", ErrCorrupt, e.Type)
	}
	body := b[:entryHdrLen+int(plen)]
	sum := uint32(b[total-4]) | uint32(b[total-3])<<8 | uint32(b[total-2])<<16 | uint32(b[total-1])<<24
	if got := crc32.ChecksumIEEE(body); got != sum {
		return Entry{}, 0, fmt.Errorf("%w: checksum %#x != %#x (seq %d)", ErrCorrupt, got, sum, e.Seq)
	}
	pd := &decoder{b: body, off: entryHdrLen}
	var ok bool
	if e.Node, ok = pd.str(); !ok {
		return Entry{}, 0, fmt.Errorf("%w: node string", ErrCorrupt)
	}
	if e.Hook, ok = pd.str(); !ok {
		return Entry{}, 0, fmt.Errorf("%w: hook string", ErrCorrupt)
	}
	if e.Name, ok = pd.str(); !ok {
		return Entry{}, 0, fmt.Errorf("%w: name string", ErrCorrupt)
	}
	if e.Digest, ok = pd.str(); !ok {
		return Entry{}, 0, fmt.Errorf("%w: digest string", ErrCorrupt)
	}
	if e.Arch, ok = pd.u32(); !ok {
		return Entry{}, 0, fmt.Errorf("%w: arch field", ErrCorrupt)
	}
	if e.Version, ok = pd.u64(); !ok {
		return Entry{}, 0, fmt.Errorf("%w: version field", ErrCorrupt)
	}
	if e.Blob, ok = pd.u64(); !ok {
		return Entry{}, 0, fmt.Errorf("%w: blob field", ErrCorrupt)
	}
	if e.Epoch, ok = pd.u64(); !ok {
		return Entry{}, 0, fmt.Errorf("%w: epoch field", ErrCorrupt)
	}
	if pd.off != entryHdrLen+int(plen) {
		return Entry{}, 0, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, entryHdrLen+int(plen)-pd.off)
	}
	return e, total, nil
}

// Journal is the leader-side deployment journal: an append-only encoded
// log, implementing core.JournalSink. Appends are stamped under mu with a
// contiguous sequence number and the current fencing epoch and land in buf
// at once; when a Replicator is attached they are group-committed to the
// standby ring (see flight), and each append returns only after the flight
// carrying its entry has committed or failed — so on the publish path, a
// record is remote before the publish is reported done.
type Journal struct {
	mu    sync.Mutex
	buf   []byte
	n     int // entries in buf
	seq   uint64
	fence func() uint64
	rep   *Replicator
	tail  *flight // newest batch that has not landed; nil when the wire is idle

	appended, replicated, repErrors, flights *telemetry.Counter
	flightEntries                            *telemetry.Histogram
	lag                                      *telemetry.Gauge
}

// flight is one group commit: a contiguous run of buf that crosses the wire
// behind a single Replicator.Append, flown by the appender that opened it.
// At most one is in the air, so ring order = buf order = seq order. An append
// that finds the wire idle flies alone at once; appends that arrive during a
// flight join the one open batch behind it, which is sealed the moment its
// predecessor lands (or earlier, at the replicator's flightBound). Arrivals
// after the seal open the next batch — a batch never grows while its leader
// waits to be scheduled, so two closed-loop appenders always see one-entry
// flights. mu is not held while a flight is on the wire.
type flight struct {
	rep  *Replicator // the stream the batch was opened on
	off  int         // buf[off:] holds the batch
	n    int         // entries aboard
	b    []byte      // set when sealed: the bytes that fly; nothing joins after
	next *flight
	done chan struct{} // closed on landing; err is valid after
	err  error
}

// NewJournal creates an empty journal registering its instruments in reg.
func NewJournal(reg *telemetry.Registry) *Journal {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Journal{
		appended:      reg.Counter("controlha.journal.appended"),
		replicated:    reg.Counter("controlha.journal.replicated"),
		repErrors:     reg.Counter("controlha.journal.replication_errors"),
		flights:       reg.Counter("controlha.journal.flights"),
		flightEntries: reg.Histogram("controlha.journal.flight_entries"),
		lag:           reg.Gauge("controlha.journal.lag"),
	}
}

// SetFenceSource installs the fencing-epoch source stamped into every
// appended entry (typically Lease.Epoch).
func (j *Journal) SetFenceSource(f func() uint64) {
	j.mu.Lock()
	j.fence = f
	j.mu.Unlock()
}

// SetReplicator attaches the standby replication stream. A batch already
// opened keeps the stream it was opened on.
func (j *Journal) SetReplicator(r *Replicator) {
	j.mu.Lock()
	j.rep = r
	j.mu.Unlock()
}

// SeedSeq continues the sequence from a replayed journal: the next entry
// gets seq n+1. Used by a standby that took over after replaying n entries.
func (j *Journal) SeedSeq(n uint64) {
	j.mu.Lock()
	j.seq = n
	j.mu.Unlock()
}

// append assigns seq + fence, encodes, appends, and replicates. Journal
// replication failures do not fail the control-plane operation (the
// publish already landed); they are counted and surfaced via the lag
// gauge, which stops converging to zero.
func (j *Journal) append(e Entry) {
	j.appendChecked(e) //nolint:errcheck // replication outcome surfaced via instruments
}

// appendChecked is append surfacing the replication outcome: entries whose
// durability on the standby gates a protocol step (the rebalance handoff
// marker) must know whether the ring took the bytes — a fenced append means
// a successor owns the ring and this term must stop, not proceed on a
// local-only record. Every member of a flight gets that flight's error.
func (j *Journal) appendChecked(e Entry) error {
	j.mu.Lock()
	j.seq++
	e.Seq = j.seq
	if j.fence != nil {
		e.Fence = j.fence()
	}
	off := len(j.buf)
	j.buf = append(j.buf, e.Encode()...)
	j.n++
	j.appended.Inc()
	if j.rep == nil {
		j.mu.Unlock()
		return nil
	}
	prev := j.tail
	if prev != nil && prev.b == nil && len(j.buf)-prev.off > prev.rep.flightBound() {
		prev.b = j.buf[prev.off:off] // full: this entry waits for the next flight
	}
	f, lead := prev, prev == nil || prev.b != nil
	if lead {
		f = &flight{rep: j.rep, off: off, done: make(chan struct{})}
		if prev == nil {
			f.b = j.buf[off:] // wire idle: fly alone, now
		} else {
			prev.next = f
		}
		j.tail = f
	}
	f.n++
	j.mu.Unlock()

	if !lead {
		<-f.done
		return f.err
	}
	if prev != nil {
		<-prev.done // its landing sealed f
	}
	err := f.rep.Append(f.b)

	j.mu.Lock()
	if f.next == nil {
		j.tail = nil
	} else if f.next.b == nil {
		f.next.b = j.buf[f.next.off:]
	}
	j.lag.Set(int64(uint64(len(j.buf)) - f.rep.Replicated()))
	j.mu.Unlock()
	if err != nil {
		j.repErrors.Add(uint64(f.n))
	} else {
		j.replicated.Add(uint64(f.n))
	}
	j.flights.Inc()
	j.flightEntries.Record(int64(f.n))
	f.err = err
	close(f.done)
	return err
}

// Append journals an arbitrary entry and surfaces the replication
// outcome, like JournalHandoff: callers that acknowledge work only after
// the standby holds it (and the simulator's acked-publish scenarios)
// append through here and treat an error as "not acked".
func (j *Journal) Append(e Entry) error {
	return j.appendChecked(e)
}

// Bytes snapshots the encoded journal.
func (j *Journal) Bytes() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]byte(nil), j.buf...)
}

// Entries decodes a snapshot of the journal, for tests and the simulator.
func (j *Journal) Entries() []Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Entry, 0, j.n)
	for b := j.buf; len(b) > 0; {
		e, n, err := DecodeEntry(b)
		if err != nil {
			panic("controlha: journal cannot decode its own log: " + err.Error())
		}
		out, b = append(out, e), b[n:]
	}
	return out
}

// Len returns the number of appended entries.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// core.JournalSink implementation.

// JournalValidate records a validator run.
func (j *Journal) JournalValidate(digest string) {
	j.append(Entry{Type: EntryValidate, Digest: digest})
}

// JournalCompile records a JIT compilation.
func (j *Journal) JournalCompile(digest string, arch native.Arch) {
	j.append(Entry{Type: EntryCompile, Digest: digest, Arch: uint32(arch)})
}

// JournalStage records a staged-but-unpublished blob.
func (j *Journal) JournalStage(node, hook, name, digest string, version, blob uint64) {
	j.append(Entry{Type: EntryStage, Node: node, Hook: hook, Name: name,
		Digest: digest, Version: version, Blob: blob})
}

// JournalPublish records a landed dispatch CAS.
func (j *Journal) JournalPublish(node, hook string, d core.Deployed) {
	var flags uint8
	if d.Reclaimed {
		flags = 1
	}
	j.append(Entry{Type: EntryPublish, Node: node, Hook: hook, Name: d.Name,
		Digest: d.Digest, Version: d.Version, Blob: d.Blob, Flags: flags})
}

// JournalRollback records a reversion to a prior version.
func (j *Journal) JournalRollback(node, hook string, to core.Deployed) {
	j.append(Entry{Type: EntryRollback, Node: node, Hook: hook, Name: to.Name,
		Digest: to.Digest, Version: to.Version, Blob: to.Blob})
}

// JournalClaim records a standby blob claimed for delta staging.
func (j *Journal) JournalClaim(node string, blob uint64) {
	j.append(Entry{Type: EntryClaim, Node: node, Blob: blob})
}

// JournalReclaim records a code-ring wrap.
func (j *Journal) JournalReclaim(node string, wrapEpoch uint64) {
	j.append(Entry{Type: EntryReclaim, Node: node, Epoch: wrapEpoch})
}

// JournalHandoff records a shard-rebalance barrier stamped with the
// departing ring epoch. Unlike the other sinks it fails on a replication
// error: the marker is the fence between "this shard still owns its keys"
// and "the replayed state below is complete and migratable" — a leader
// that cannot land it on the standby ring (typed ErrFencedAppend when a
// successor stamped the ring) has been deposed and must abort the handoff
// instead of migrating state it no longer owns.
func (j *Journal) JournalHandoff(ringEpoch uint64) error {
	return j.appendChecked(Entry{Type: EntryHandoff, Epoch: ringEpoch})
}

var _ core.JournalSink = (*Journal)(nil)

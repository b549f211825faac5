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
//     paths as a core.FenceCheck.
package controlha

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

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
	// ErrEntryTooLarge reports an entry whose payload exceeds
	// maxEntryPayload, which DecodeEntry would refuse: the journal refuses
	// it first, before it takes a sequence number.
	ErrEntryTooLarge = errors.New("controlha: journal entry too large to replay")
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
	Flags   uint8 // bit 0: the referenced version was already Reclaimed
}

const (
	entryMagic = 0x4A52 // "RJ"
	// maxEntryPayload bounds decoded payload lengths; node keys, hook names
	// and digests are all short, so anything near this is corruption.
	maxEntryPayload = 1 << 16
	// maxHexBytes bounds the hex string form: a digest of up to 64 bytes
	// (128 hex digits) is packed, anything longer rides raw.
	maxHexBytes = 64
)

// A string field is stored as uvarint(n<<2 | form) and then the form's
// bytes. The encoder picks the form from the string alone, so equal
// strings always encode alike.
const (
	strRaw = iota // n bytes: the string itself
	strHex        // n bytes (1 ≤ n ≤ maxHexBytes) a lowercase, even-length hex string spells
	strKey        // n = 0, then a non-zero uvarint v: the string "0x" + hex(v), a %#x node key
)

const hexDigits = "0123456789abcdef"

// unhex is the value of a lowercase hex digit; upper case is not a digit,
// so a string packs only if it unpacks to itself.
func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// strForm picks s's form: key for the %#x spelling of a non-zero uint64
// (returned as v), hex for a lowercase, even-length hex string of at most
// 2*maxHexBytes digits, raw for everything else.
func strForm(s string) (form int, v uint64) {
	if len(s) > 2 && len(s) <= 2+16 && s[0] == '0' && s[1] == 'x' && s[2] != '0' {
		for i := 2; i < len(s); i++ {
			d, ok := unhex(s[i])
			if !ok {
				return strRaw, 0
			}
			v = v<<4 | uint64(d)
		}
		return strKey, v
	}
	if len(s) == 0 || len(s)%2 != 0 || len(s) > 2*maxHexBytes {
		return strRaw, 0
	}
	for i := 0; i < len(s); i++ {
		if _, ok := unhex(s[i]); !ok {
			return strRaw, 0
		}
	}
	return strHex, 0
}

func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// strLen is how many bytes appendStr spends on s.
func strLen(s string) int {
	switch form, v := strForm(s); form {
	case strKey:
		return 1 + uvarintLen(v)
	case strHex:
		return uvarintLen(uint64(len(s)/2)<<2|strHex) + len(s)/2
	}
	return uvarintLen(uint64(len(s))<<2) + len(s)
}

func appendStr(b []byte, s string) []byte {
	switch form, v := strForm(s); form {
	case strKey:
		return binary.AppendUvarint(append(b, strKey), v)
	case strHex:
		b = binary.AppendUvarint(b, uint64(len(s)/2)<<2|strHex)
		for i := 0; i < len(s); i += 2 {
			hi, _ := unhex(s[i])
			lo, _ := unhex(s[i+1])
			b = append(b, hi<<4|lo)
		}
		return b
	}
	return append(binary.AppendUvarint(b, uint64(len(s))<<2), s...)
}

// payloadLen is how many payload bytes Encode writes for e.
func (e *Entry) payloadLen() int {
	return uvarintLen(e.Seq) + uvarintLen(e.Fence) +
		strLen(e.Node) + strLen(e.Hook) + strLen(e.Name) + strLen(e.Digest) +
		uvarintLen(uint64(e.Arch)) + uvarintLen(e.Version) + uvarintLen(e.Blob)
}

// Encode appends the entry's encoding to b and returns the extended slice;
// with room in b it allocates nothing:
//
//	[magic u16 "RJ"][type u8][flags u8][payloadLen uvarint]
//	[payload: seq, fence (uvarint); node, hook, name, digest (str);
//	 arch, version, blob (uvarint)]
//	[crc32(IEEE) over everything before it, u32]
func (e *Entry) Encode(b []byte) []byte {
	plen := uint64(e.payloadLen())
	b = slices.Grow(b, 4+uvarintLen(plen)+int(plen)+4)
	start := len(b)
	b = append(b, byte(entryMagic&0xff), byte(entryMagic>>8), byte(e.Type), e.Flags)
	b = binary.AppendUvarint(b, plen)
	b = binary.AppendUvarint(b, e.Seq)
	b = binary.AppendUvarint(b, e.Fence)
	b = appendStr(b, e.Node)
	b = appendStr(b, e.Hook)
	b = appendStr(b, e.Name)
	b = appendStr(b, e.Digest)
	b = binary.AppendUvarint(b, uint64(e.Arch))
	b = binary.AppendUvarint(b, e.Version)
	b = binary.AppendUvarint(b, e.Blob)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

type decoder struct {
	b   []byte
	off int
}

// uvarint reads one uvarint; it fails if the bytes end inside it or it
// overflows 64 bits.
func (d *decoder) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, false
	}
	d.off += n
	return v, true
}

// str reads one string field. The hex and key forms are spelled out in a
// stack buffer, so each non-empty string costs one allocation, whatever
// its form.
func (d *decoder) str() (string, bool) {
	x, ok := d.uvarint()
	if !ok {
		return "", false
	}
	n, rest := x>>2, uint64(len(d.b)-d.off)
	switch x & 3 {
	case strRaw:
		if n > rest {
			return "", false
		}
		s := string(d.b[d.off : d.off+int(n)])
		d.off += int(n)
		return s, true
	case strHex:
		if n == 0 || n > maxHexBytes || n > rest {
			return "", false
		}
		var buf [2 * maxHexBytes]byte
		src, dst := d.b[d.off:d.off+int(n)], buf[:2*n]
		for i, c := range src {
			dst[2*i], dst[2*i+1] = hexDigits[c>>4], hexDigits[c&0xf]
		}
		d.off += int(n)
		return string(dst), true
	case strKey:
		if n != 0 {
			return "", false
		}
		v, ok := d.uvarint()
		if !ok || v == 0 {
			return "", false
		}
		var buf [2 + 16]byte
		i := len(buf)
		for ; v != 0; v >>= 4 {
			i--
			buf[i] = hexDigits[v&0xf]
		}
		buf[i-2], buf[i-1] = '0', 'x'
		return string(buf[i-2:]), true
	}
	return "", false
}

// DecodeEntry parses one entry from the front of b, returning the entry
// and the number of bytes consumed. b ending anywhere inside an entry,
// the payload length included, is ErrTruncated; any structural or
// checksum violation is ErrCorrupt.
func DecodeEntry(b []byte) (Entry, int, error) {
	if len(b) < 4 {
		return Entry{}, 0, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(b))
	}
	if magic := binary.LittleEndian.Uint16(b); magic != entryMagic {
		return Entry{}, 0, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, magic)
	}
	plen, vn := binary.Uvarint(b[4:])
	if vn == 0 {
		return Entry{}, 0, fmt.Errorf("%w: inside the payload length", ErrTruncated)
	}
	if vn < 0 || plen > maxEntryPayload {
		return Entry{}, 0, fmt.Errorf("%w: payload length %d", ErrCorrupt, plen)
	}
	hdr := 4 + vn
	total := hdr + int(plen) + 4
	if len(b) < total {
		return Entry{}, 0, fmt.Errorf("%w: entry needs %d bytes, have %d", ErrTruncated, total, len(b))
	}
	e := Entry{Type: EntryType(b[2]), Flags: b[3]}
	if e.Type == EntryInvalid || e.Type > EntryClaim {
		return Entry{}, 0, fmt.Errorf("%w: unknown entry type %d", ErrCorrupt, e.Type)
	}
	body := b[:total-4]
	if got, sum := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(b[total-4:]); got != sum {
		return Entry{}, 0, fmt.Errorf("%w: checksum %#x != %#x", ErrCorrupt, got, sum)
	}
	pd := &decoder{b: body, off: hdr}
	var ok bool
	if e.Seq, ok = pd.uvarint(); !ok {
		return Entry{}, 0, fmt.Errorf("%w: seq field", ErrCorrupt)
	}
	if e.Fence, ok = pd.uvarint(); !ok {
		return Entry{}, 0, fmt.Errorf("%w: fence field", ErrCorrupt)
	}
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
	arch, ok := pd.uvarint()
	if !ok || arch > math.MaxUint32 {
		return Entry{}, 0, fmt.Errorf("%w: arch field", ErrCorrupt)
	}
	e.Arch = uint32(arch)
	if e.Version, ok = pd.uvarint(); !ok {
		return Entry{}, 0, fmt.Errorf("%w: version field", ErrCorrupt)
	}
	if e.Blob, ok = pd.uvarint(); !ok {
		return Entry{}, 0, fmt.Errorf("%w: blob field", ErrCorrupt)
	}
	if pd.off != len(body) {
		return Entry{}, 0, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(body)-pd.off)
	}
	return e, total, nil
}

// Journal is the leader-side deployment journal: an append-only encoded
// log, implementing core.JournalSink. Appends are stamped under mu with a
// contiguous sequence number and the current fencing epoch and land in buf
// at once; when a Replicator is attached they are group-committed to the
// standby ring (see flight). Every append but two returns only after the
// flight carrying its entry has committed or failed — so on the publish
// path, a record is remote before the publish is reported done. The two
// are validate and compile, whose entries replay ignores: they are carried
// without waiting, aboard the open batch or in buf until the next waiting
// append flies them, so they are remote no later than the publish they
// precede, at no flight of their own.
type Journal struct {
	mu    sync.Mutex
	buf   []byte
	n     int // entries in buf
	seq   uint64
	fence func() uint64
	rep   *Replicator
	tail  *flight // newest batch that has not landed; nil when the wire is idle

	// buf[carryOff:] holds the carried entries, carried of them: entries
	// that came with no batch open and wait for the next flight. Carried
	// and open batch never coexist — opening a batch takes the carry along.
	carryOff, carried int

	appended, replicated, repErrors, flights *telemetry.Counter
	flightEntries                            *telemetry.Histogram
	lag                                      *telemetry.Gauge
}

// flight is one group commit: a contiguous run of buf that crosses the wire
// behind a single Replicator.Append, flown by the appender that opened it.
// At most one is in the air, so ring order = buf order = seq order. An append
// that finds the wire idle flies at once, together with any carried
// entries; appends that arrive during a flight join the one open batch
// behind it, which is sealed the moment its predecessor lands (or earlier,
// at the replicator's flightBound). Arrivals after the seal open the next
// batch — a batch never grows while its leader waits to be scheduled, so
// two closed-loop appenders always see one-entry flights. mu is not held
// while a flight is on the wire.
type flight struct {
	rep  *Replicator // the stream the batch was opened on
	off  int         // buf[off:] holds the batch
	n    int         // entries aboard
	b    []byte      // set when sealed: the bytes that fly; nothing joins after
	next *flight
	done chan struct{} // closed on landing; err is valid after
	err  error
}

// landingSpin bounds how long the next flight's leader polls for the landing
// of the flight ahead before it parks. That wait is about one flight's
// verbs; parked, the leader needs a thread wake-up once the flight lands,
// which on a virtualised host can take longer than the flight — with the
// wire idle and every entry of the next batch waiting the whole time.
const landingSpin = 50 * time.Microsecond

// await returns once f has landed: it polls, yielding the processor between
// polls, for up to landingSpin, then parks.
func (f *flight) await() {
	for end := time.Now().Add(landingSpin); time.Now().Before(end); runtime.Gosched() {
		select {
		case <-f.done:
			return
		default:
		}
	}
	<-f.done
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
// opened keeps the stream it was opened on; entries carried for the old
// stream stay local, like those appended with no stream attached.
func (j *Journal) SetReplicator(r *Replicator) {
	j.mu.Lock()
	j.rep = r
	j.carried = 0
	j.mu.Unlock()
}

// SeedSeq continues the sequence from a replayed journal: the next entry
// gets seq n+1. Used by a standby that took over after replaying n entries.
func (j *Journal) SeedSeq(n uint64) {
	j.mu.Lock()
	j.seq = n
	j.mu.Unlock()
}

// append journals an entry and waits for its flight. Journal replication
// failures do not fail the control-plane operation (the publish already
// landed); they are counted and surfaced via the lag gauge, which stops
// converging to zero.
func (j *Journal) append(e Entry) {
	j.appendChecked(e) //nolint:errcheck // replication outcome surfaced via instruments
}

// appendChecked is append surfacing the replication outcome: a caller that
// acts only once the standby holds its entry must know whether the ring
// took the bytes — a fenced append means a successor owns the ring and this
// term must stop, not proceed on a local-only record. Every member of a
// flight gets that flight's error.
func (j *Journal) appendChecked(e Entry) error {
	return j.put(e, true)
}

// carry journals an entry the standby's replay ignores (validate, compile)
// without waiting for the wire: it joins the open batch if there is one, and
// otherwise waits in buf for the next flight a waiting append opens. Only
// when the carried bytes pass flightBound does it fly them itself.
func (j *Journal) carry(e Entry) {
	j.put(e, false) //nolint:errcheck // replication outcome surfaced via instruments
}

// put stamps e with seq + fence, lands it in buf and puts it aboard a
// flight: the open batch if there is one, else a new flight that starts at
// the carried entries. A put that does not wait opens no flight until the
// carried bytes pass flightBound. An entry no standby could decode is
// refused with ErrEntryTooLarge and counted as a replication error; it
// takes no sequence number.
func (j *Journal) put(e Entry, wait bool) error {
	j.mu.Lock()
	e.Seq = j.seq + 1
	if j.fence != nil {
		e.Fence = j.fence()
	}
	if n := e.payloadLen(); n > maxEntryPayload {
		j.mu.Unlock()
		j.repErrors.Inc()
		return fmt.Errorf("%w: %s entry of %d payload bytes, limit %d", ErrEntryTooLarge, e.Type, n, maxEntryPayload)
	}
	j.seq = e.Seq
	off := len(j.buf)
	j.buf = e.Encode(j.buf)
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
	if prev != nil && prev.b == nil { // a batch is open: join it
		prev.n++
		j.mu.Unlock()
		if !wait {
			return nil
		}
		<-prev.done
		return prev.err
	}
	if j.carried == 0 {
		j.carryOff = off
	}
	j.carried++
	if !wait && len(j.buf)-j.carryOff <= j.rep.flightBound() {
		j.lag.Set(int64(uint64(len(j.buf)) - j.rep.Replicated()))
		j.mu.Unlock()
		return nil
	}
	f := &flight{rep: j.rep, off: j.carryOff, n: j.carried, done: make(chan struct{})}
	j.carried = 0
	if prev == nil {
		f.b = j.buf[f.off:] // wire idle: fly now
	} else {
		prev.next = f
	}
	j.tail = f
	j.mu.Unlock()

	if prev != nil {
		prev.await() // its landing sealed f
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
// outcome: callers that acknowledge work only after the standby holds it
// (and the simulator's acked-publish scenarios) append through here and
// treat an error as "not acked".
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
	j.carry(Entry{Type: EntryValidate, Digest: digest})
}

// JournalCompile records a JIT compilation.
func (j *Journal) JournalCompile(digest string, arch native.Arch) {
	j.carry(Entry{Type: EntryCompile, Digest: digest, Arch: uint32(arch)})
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

// JournalReclaim and JournalHandoff journal nothing: the code region no
// longer wraps, and the journal has no handoff entry. They exist only to
// satisfy core.JournalSink until the benchmark's traced sink stops
// forwarding them.
func (j *Journal) JournalReclaim(string, uint64) {}

// JournalHandoff: see JournalReclaim.
func (j *Journal) JournalHandoff(uint64) error { return nil }

var _ core.JournalSink = (*Journal)(nil)

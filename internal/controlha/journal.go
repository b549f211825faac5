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
// log, implementing core.Journaler and core.JournalSink. Entries are stamped
// under mu with a contiguous sequence number and the current fencing epoch
// and land in buf at once; when a Replicator is attached they are
// group-committed to the standby ring (see flight). Journal waits for
// nothing: its ack does, and waiting on it flies the entry if no flight has
// it yet. Of the JournalSink methods, every append but two returns only
// after the flight carrying its entry has committed or failed — so a
// record is remote before the call that made it is reported done. The two
// are validate and compile, whose entries replay ignores: they are carried
// without waiting, aboard the open batch or in buf until the next flight
// takes them, so they are remote no later than the publish they precede,
// at no flight of their own.
type Journal struct {
	mu    sync.Mutex
	buf   []byte
	n     int // entries in buf
	seq   uint64
	fence func() uint64
	rep   *Replicator
	head  *flight // oldest batch that has not landed
	tail  *flight // newest batch that has not landed; nil when all have

	// buf[carryOff:] holds the carried entries, carried of them from seq
	// carrySeq on: entries that came with no batch open and wait for the
	// next flight. Carried and open batch never coexist — opening a batch
	// takes the carry along.
	carryOff, carried int
	carrySeq          uint64

	// landed is the last seq a landed flight carried; failed holds the seq
	// runs of landed flights that failed, oldest first, adjacent failures
	// merged, each with its first error.
	landed uint64
	failed []failedRun

	appended, replicated, repErrors, flights *telemetry.Counter
	flightEntries                            *telemetry.Histogram
	lag                                      *telemetry.Gauge
}

// failedRun is a run of seqs, lo through hi, whose flights failed.
type failedRun struct {
	lo, hi uint64
	err    error
}

// flight is one group commit: a contiguous run of buf that crosses the wire
// behind a single Replicator.Append, flown by the goroutine that took it on
// — the appender that opened it, or the first to wait on an entry aboard
// it. At most one is in the air, so ring order = buf order = seq order. An
// append that finds the wire idle flies at once, together with any carried
// entries; appends that arrive during a flight join the one open batch
// behind it, which is sealed the moment its predecessor lands (or earlier,
// at the replicator's flightBound). Arrivals after the seal open the next
// batch — a batch never grows while its leader waits to be scheduled, so
// two closed-loop appenders always see one-entry flights, whether they wait
// in the append or on its ack. Flights taken on form a prefix of the
// queue: whoever takes one on takes on every flight ahead of it that no one
// has, and flies them in order. mu is not held while a flight is on the
// wire.
type flight struct {
	rep  *Replicator // the stream the batch was opened on
	off  int         // buf[off:] holds the batch
	lo   uint64      // seq of the first entry aboard
	n    int         // entries aboard
	led  bool        // someone has taken it on to fly it
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

// putMode is what put does with an entry once it is in buf.
type putMode uint8

const (
	// putCarry joins the open batch or rides the carry, and flies the
	// carry only once it passes flightBound: for entries replay ignores.
	putCarry putMode = iota
	// putBoard joins the open batch, or opens one behind a flight that has
	// not landed, or — with the wire idle — rides the carry, so a fleet
	// job's entries wait together for the job's next wait.
	putBoard
	// putFlight boards as putWait does, opening a flight with the wire
	// idle, but waits for nothing: the entry's ack does.
	putFlight
	// putWait boards, then waits for the entry's flight, flying it if no
	// one has taken it on.
	putWait
)

// append journals an entry and waits for its flight. Journal replication
// failures do not fail the control-plane operation (the publish already
// landed); they are counted and surfaced via the lag gauge, which stops
// converging to zero.
func (j *Journal) append(e Entry) {
	j.put(e, putWait) //nolint:errcheck // replication outcome surfaced via instruments
}

// carry journals an entry the standby's replay ignores (validate, compile)
// without waiting for the wire: it joins the open batch if there is one, and
// otherwise waits in buf for the next flight a waiting append opens. Only
// when the carried bytes pass flightBound does it fly them itself.
func (j *Journal) carry(e Entry) {
	j.put(e, putCarry) //nolint:errcheck // replication outcome surfaced via instruments
}

// put stamps e with seq + fence, lands it in buf and puts it aboard a
// flight as mode says: the open batch if there is one, else a new flight
// that starts at the carried entries, or the carry itself. It returns e's
// seq. An entry no standby could decode is refused with ErrEntryTooLarge
// and counted as a replication error; it takes no sequence number.
func (j *Journal) put(e Entry, mode putMode) (uint64, error) {
	j.mu.Lock()
	e.Seq = j.seq + 1
	if j.fence != nil {
		e.Fence = j.fence()
	}
	if n := e.payloadLen(); n > maxEntryPayload {
		j.mu.Unlock()
		j.repErrors.Inc()
		return 0, fmt.Errorf("%w: %s entry of %d payload bytes, limit %d", ErrEntryTooLarge, e.Type, n, maxEntryPayload)
	}
	j.seq = e.Seq
	off := len(j.buf)
	j.buf = e.Encode(j.buf)
	j.n++
	j.appended.Inc()
	if j.rep == nil {
		j.mu.Unlock()
		return e.Seq, nil
	}
	prev := j.tail
	if prev != nil && prev.b == nil && len(j.buf)-prev.off > prev.rep.flightBound() {
		prev.b = j.buf[prev.off:off] // full: this entry waits for the next flight
	}
	if prev != nil && prev.b == nil { // a batch is open: join it
		prev.n++
		switch {
		case mode != putWait:
			j.mu.Unlock()
			return e.Seq, nil
		case prev.led:
			j.mu.Unlock()
			<-prev.done // its leader flies it
			return e.Seq, prev.err
		}
		return e.Seq, j.awaitFlight(prev)
	}
	if j.carried == 0 {
		j.carryOff, j.carrySeq = off, e.Seq
	}
	j.carried++
	if mode == putCarry && len(j.buf)-j.carryOff <= j.rep.flightBound() || mode == putBoard && prev == nil {
		j.lag.Set(int64(uint64(len(j.buf)) - j.rep.Replicated()))
		j.mu.Unlock()
		return e.Seq, nil
	}
	f := j.openCarried(prev)
	if mode == putBoard || mode == putFlight {
		// Sealed when prev lands (at once with the wire idle), flown by
		// the first to wait on it.
		j.lag.Set(int64(uint64(len(j.buf)) - j.rep.Replicated()))
		j.mu.Unlock()
		return e.Seq, nil
	}
	return e.Seq, j.awaitFlight(f)
}

// openCarried opens a flight holding every carried entry behind prev, the
// tail; with the wire idle (prev nil) it is sealed at once. No one has
// taken it on yet. Caller holds mu, with at least one entry carried.
func (j *Journal) openCarried(prev *flight) *flight {
	f := &flight{rep: j.rep, off: j.carryOff, lo: j.carrySeq, n: j.carried, done: make(chan struct{})}
	j.carried = 0
	if prev == nil {
		f.b = j.buf[f.off:]
		j.head = f
	} else {
		prev.next = f
	}
	j.tail = f
	return f
}

// awaitFlight returns once f has landed, with its error. If no one has
// taken f on, the caller takes it on together with every flight ahead of
// it no one has, and flies them in order, each once the one ahead of it
// has landed (that landing sealed it); otherwise it polls for f's landing.
// Caller holds mu; awaitFlight releases it.
func (j *Journal) awaitFlight(f *flight) error {
	var ahead, first *flight
	for g := j.head; g != f; g = g.next {
		if !g.led {
			first = g
			break
		}
		ahead = g
	}
	if first == nil && !f.led {
		first = f
	}
	if first == nil {
		j.mu.Unlock()
		f.await()
		return f.err
	}
	for g := first; ; g = g.next {
		g.led = true
		if g == f {
			break
		}
	}
	j.mu.Unlock()
	// The flights taken on here all had a successor, so their next
	// pointers were set before mu was released and never change.
	for g := first; ; g = g.next {
		if ahead != nil {
			ahead.await()
		}
		j.fly(g)
		if g == f {
			return f.err
		}
		ahead = g
	}
}

// fly puts sealed flight f on the wire and lands it: it seals the batch
// behind it, advances the head and the landed seq, and closes f.done.
func (j *Journal) fly(f *flight) {
	err := f.rep.Append(f.b)

	j.mu.Lock()
	if f.next == nil {
		j.tail = nil
	} else if f.next.b == nil {
		f.next.b = j.buf[f.next.off:]
	}
	j.head = f.next
	j.landed = f.lo + uint64(f.n) - 1
	if err != nil {
		if k := len(j.failed) - 1; k >= 0 && j.failed[k].hi+1 == f.lo {
			j.failed[k].hi = j.landed
		} else {
			j.failed = append(j.failed, failedRun{lo: f.lo, hi: j.landed, err: err})
		}
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
}

// Journal implements core.Journaler: it journals e without waiting and
// returns e's ack. Validate and compile entries are carried. An entry a
// fleet job batches rides the carry with the wire idle; any other boards
// as a waiting append does, so callers that wait on their acks at once
// see the flights they would waiting in the append.
func (j *Journal) Journal(e core.JournalEntry) core.Ack {
	mode := putFlight
	switch {
	case e.Kind == core.EntryValidate || e.Kind == core.EntryCompile:
		mode = putCarry
	case e.Batch:
		mode = putBoard
	}
	seq, err := j.put(entryOf(e), mode)
	return core.NewAck(j, seq, err)
}

// WaitSeq implements core.AckSource: it returns once entry seq is on the
// standby, with the error of the flight that carried it. A landed flight
// answers at once; an entry aboard a flight waits for it like any append
// aboard (flying it if no one has taken it on); a carried entry flies every
// carried entry now, so no ack waits on an append that may never come. An
// entry journaled with no stream attached is not replicated: nil.
func (j *Journal) WaitSeq(seq uint64) error {
	j.mu.Lock()
	if seq <= j.landed {
		defer j.mu.Unlock()
		for i := len(j.failed) - 1; i >= 0 && seq <= j.failed[i].hi; i-- {
			if seq >= j.failed[i].lo {
				return j.failed[i].err
			}
		}
		return nil
	}
	for f := j.head; f != nil && seq >= f.lo; f = f.next {
		if seq < f.lo+uint64(f.n) {
			return j.awaitFlight(f)
		}
	}
	if j.carried == 0 || seq < j.carrySeq {
		j.mu.Unlock()
		return nil
	}
	return j.awaitFlight(j.openCarried(j.tail))
}

// entryOf is e as the journal records it. core numbers its entry kinds as
// the format numbers entry types.
func entryOf(e core.JournalEntry) Entry {
	var flags uint8
	if e.Reclaimed && e.Kind == core.EntryPublish {
		flags = 1
	}
	return Entry{Type: EntryType(e.Kind), Node: e.Node, Hook: e.Hook, Name: e.Name, Digest: e.Digest,
		Arch: uint32(e.Arch), Version: e.Version, Blob: e.Blob, Flags: flags}
}

// Append journals an arbitrary entry and surfaces the replication
// outcome: callers that acknowledge work only after the standby holds it
// (and the simulator's acked-publish scenarios) append through here and
// treat an error as "not acked".
func (j *Journal) Append(e Entry) error {
	_, err := j.put(e, putWait)
	return err
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

var (
	_ core.JournalSink = (*Journal)(nil)
	_ core.Journaler   = (*Journal)(nil)
)

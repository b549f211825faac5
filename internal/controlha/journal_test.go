package controlha

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"rdx/internal/core"
	"rdx/internal/native"
	"rdx/internal/telemetry"
)

func fullEntry(t EntryType, seq uint64) Entry {
	return Entry{
		Type: t, Seq: seq, Fence: 3,
		Node: "0x1a2b", Hook: "ingress", Name: "gen-7", Digest: "sha256:abcdef0123456789",
		Arch: 1, Version: 7, Blob: 0xdead0000, Flags: 1,
	}
}

func TestEntryEncodeDecodeRoundTrip(t *testing.T) {
	for ty := EntryValidate; ty <= EntryClaim; ty++ {
		e := fullEntry(ty, 42)
		enc := e.Encode(nil)
		got, n, err := DecodeEntry(enc)
		if err != nil {
			t.Fatalf("%v: decode: %v", ty, err)
		}
		if n != len(enc) {
			t.Errorf("%v: consumed %d of %d bytes", ty, n, len(enc))
		}
		if got != e {
			t.Errorf("%v: round trip\n got %+v\nwant %+v", ty, got, e)
		}
	}
	// Empty strings and zero fields survive too.
	min := Entry{Type: EntryValidate, Seq: 1}
	got, _, err := DecodeEntry(min.Encode(nil))
	if err != nil || got != min {
		t.Errorf("minimal entry round trip: %+v, %v", got, err)
	}
	// The valid types end at EntryClaim: a well-checksummed entry of any
	// other type is corruption, not a record replay may skip.
	for _, ty := range []EntryType{EntryInvalid, EntryClaim + 1} {
		e := fullEntry(ty, 42)
		if _, _, err := DecodeEntry(e.Encode(nil)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%v: decode = %v, want ErrCorrupt", ty, err)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	e9 := fullEntry(EntryPublish, 9)
	enc := e9.Encode(nil)
	// Flipping any single byte must yield a typed error (or, for a byte in
	// the length fields, possibly a truncation) — never a panic, never a
	// silently different entry.
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x5a
		e, _, err := DecodeEntry(mut)
		if err == nil {
			if e == fullEntry(EntryPublish, 9) {
				t.Fatalf("flip at %d: checksum failed to catch mutation", i)
			}
			t.Fatalf("flip at %d: decoded mutated bytes into %+v", i, e)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("flip at %d: untyped error %v", i, err)
		}
	}
}

// TestDecodeRejectsTruncation: every strict prefix of an entry is a
// truncation, the prefixes ending inside a two-byte payload length
// included, so a standby that pumped part of an entry waits for the rest.
func TestDecodeRejectsTruncation(t *testing.T) {
	long := fullEntry(EntryStage, 1)
	long.Name = strings.Repeat("n", 200)
	for _, e := range []Entry{fullEntry(EntryStage, 1), long} {
		enc := e.Encode(nil)
		for n := 0; n < len(enc); n++ {
			if _, _, err := DecodeEntry(enc[:n]); !errors.Is(err, ErrTruncated) {
				t.Fatalf("prefix of %d/%d bytes: %v, want ErrTruncated", n, len(enc), err)
			}
		}
	}
}

// sampleJournal appends a representative entry mix through the sink API.
func sampleJournal() *Journal {
	j := NewJournal(telemetry.NewRegistry())
	fence := uint64(1)
	j.SetFenceSource(func() uint64 { return fence })
	j.JournalValidate("sha256:aaaa")
	j.JournalCompile("sha256:aaaa", native.Arch(1))
	j.JournalStage("0x1", "ingress", "v1", "sha256:aaaa", 1, 0x100)
	j.JournalPublish("0x1", "ingress", core.Deployed{Blob: 0x100, Version: 1, Name: "v1", Digest: "sha256:aaaa"})
	j.JournalStage("0x1", "ingress", "v2", "sha256:bbbb", 2, 0x200)
	j.JournalPublish("0x1", "ingress", core.Deployed{Blob: 0x200, Version: 2, Name: "v2", Digest: "sha256:bbbb"})
	fence = 2
	j.JournalRollback("0x1", "ingress", core.Deployed{Blob: 0x100, Version: 1, Name: "v1", Digest: "sha256:aaaa"})
	j.JournalClaim("0x1", 0x100)
	return j
}

func TestReplayReconstructsState(t *testing.T) {
	j := sampleJournal()
	s, err := Replay(j.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if s.Entries != j.Len() || s.LastSeq != uint64(j.Len()) || s.LastFence != 2 {
		t.Fatalf("entries=%d lastSeq=%d lastFence=%d", s.Entries, s.LastSeq, s.LastFence)
	}
	k := Key{Node: "0x1", Hook: "ingress"}
	// Rollback forced the version map back to v1.
	if dv := s.Versions[k]; dv.Version != 1 || dv.Blob != 0x100 {
		t.Errorf("version after rollback = %+v", dv)
	}
	// v2's stage was closed by its publish; nothing is left open.
	if len(s.Open) != 0 {
		t.Errorf("open intents = %+v", s.Open)
	}
	// The claim tombstoned the remaining history.
	for i, d := range s.History[k] {
		if !d.Reclaimed {
			t.Errorf("history[%d] = %+v not tombstoned", i, d)
		}
	}
}

func TestReplayDeterministic(t *testing.T) {
	data := sampleJournal().Bytes()
	s1, err1 := Replay(data)
	s2, err2 := Replay(data)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("replay diverged:\n%+v\n%+v", s1, s2)
	}
}

func TestReplayRejectsReorderAndSplice(t *testing.T) {
	j := sampleJournal()
	entries := j.Entries()

	reencode := func(es []Entry) []byte {
		var out []byte
		for i := range es {
			out = append(out, es[i].Encode(nil)...)
		}
		return out
	}

	// Swap two adjacent entries: seq 3 arrives before 2.
	swapped := append([]Entry(nil), entries...)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	if _, err := Replay(reencode(swapped)); !errors.Is(err, ErrBadSequence) {
		t.Errorf("reordered journal: %v, want ErrBadSequence", err)
	}

	// Drop an interior entry: seq skips.
	spliced := append(append([]Entry(nil), entries[:2]...), entries[3:]...)
	if _, err := Replay(reencode(spliced)); !errors.Is(err, ErrBadSequence) {
		t.Errorf("spliced journal: %v, want ErrBadSequence", err)
	}

	// Fencing epoch regression: a later entry claims an earlier term.
	regressed := append([]Entry(nil), entries...)
	regressed[len(regressed)-1].Fence = 0
	if _, err := Replay(reencode(regressed)); !errors.Is(err, ErrBadSequence) {
		t.Errorf("fence regression: %v, want ErrBadSequence", err)
	}

	// Truncation mid-entry.
	data := j.Bytes()
	if _, err := Replay(data[:len(data)-3]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated journal: %v, want ErrTruncated", err)
	}

	// Corruption inside an entry body.
	corrupt := append([]byte(nil), data...)
	corrupt[len(data)/2] ^= 0xff
	if _, err := Replay(corrupt); !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
		t.Errorf("corrupted journal: %v, want typed error", err)
	}

	// The intact journal still replays.
	if _, err := Replay(data); err != nil {
		t.Errorf("intact journal failed: %v", err)
	}
}

func TestJournalSeedSeqContinues(t *testing.T) {
	j1 := sampleJournal()
	s, err := Replay(j1.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	j2 := NewJournal(telemetry.NewRegistry())
	j2.SeedSeq(s.LastSeq)
	j2.SetFenceSource(func() uint64 { return 3 })
	j2.JournalPublish("0x2", "kv", core.Deployed{Blob: 0x300, Version: 1, Name: "v3", Digest: "sha256:cccc"})
	// The concatenated stream — old term then new — replays end to end.
	joined := append(j1.Bytes(), j2.Bytes()...)
	s2, err := Replay(joined)
	if err != nil {
		t.Fatalf("cross-term replay: %v", err)
	}
	if s2.LastSeq != s.LastSeq+1 || s2.LastFence != 3 {
		t.Errorf("lastSeq=%d lastFence=%d", s2.LastSeq, s2.LastFence)
	}
}

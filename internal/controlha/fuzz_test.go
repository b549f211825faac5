package controlha

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"rdx/internal/core"
	"rdx/internal/sim"
)

// replayCorpus is the seed set of the journal fuzzers: valid, empty,
// garbage, truncated, misaligned, bit-flipped and reordered journals.
func replayCorpus() [][]byte {
	valid := sampleJournal().Bytes()
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0x80
	// Two entries swapped: decodes cleanly, fails the sequence check.
	entries := sampleJournal().Entries()
	entries[0], entries[1] = entries[1], entries[0]
	var swapped []byte
	for i := range entries {
		swapped = append(swapped, entries[i].Encode(nil)...)
	}
	return [][]byte{
		{},
		[]byte("not a journal at all"),
		valid,
		valid[:len(valid)-5],           // truncated mid-entry
		append([]byte{0xff}, valid...), // misaligned prefix
		corrupt,
		swapped,
	}
}

// FuzzJournalReplay feeds arbitrary byte streams to Replay. The contract
// under attack: corrupted, truncated, or reordered journals must produce a
// typed error (ErrCorrupt / ErrTruncated / ErrBadSequence) — never a panic
// — and any stream that does replay must replay deterministically.
func FuzzJournalReplay(f *testing.F) {
	for _, seed := range replayCorpus() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s1, err1 := Replay(data)
		s2, err2 := Replay(data)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic error: %v vs %v", err1, err2)
		}
		if err1 != nil {
			if !errors.Is(err1, ErrCorrupt) && !errors.Is(err1, ErrTruncated) && !errors.Is(err1, ErrBadSequence) {
				t.Fatalf("untyped replay error: %v", err1)
			}
			return
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("replay diverged on identical input:\n%+v\n%+v", s1, s2)
		}
		if s1.Entries > 0 && s1.LastSeq == 0 {
			t.Fatalf("replayed %d entries with lastSeq 0", s1.Entries)
		}
	})
}

// FuzzJournalPumpThroughSim drives arbitrary journal bytes through the
// REAL lease-acquire + replicator-append protocol over the simulator's
// step-controlled transport (the same fabric the model checker schedules)
// and asserts wire faithfulness: the bytes committed to the standby's
// ring are bit-identical to what was appended, and replaying the pumped
// copy agrees exactly — same typed error or same state — with replaying
// the input directly. Any divergence means the transport or the ring
// framing mangled journal bytes in flight.
func FuzzJournalPumpThroughSim(f *testing.F) {
	valid := sampleJournal().Bytes()
	f.Add([]byte{})
	f.Add([]byte("not a journal at all"))
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0x80
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<13 {
			return // beyond ring capacity by construction; Append refuses
		}
		host, err := NewHostWith(1<<14, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer host.Close()

		s := sim.New(sim.Config{Det: true})
		net := sim.NewNet(s)
		net.AddHost("standby", host.Endpoint())

		var appendErr error
		s.Setup("pump", func() {
			qp := net.QP("ctrl", "standby")
			mrs, err := qp.QueryMRs()
			if err != nil {
				t.Errorf("sim QueryMRs: %v", err)
				return
			}
			witness, err := findMR(mrs, WitnessMRName)
			if err != nil {
				t.Error(err)
				return
			}
			ring, err := findMR(mrs, RingMRName)
			if err != nil {
				t.Error(err)
				return
			}
			rm := core.NewRemoteMemory(qp, mrs)
			lease := NewLease(rm, witness.Addr, 1, time.Minute, nil, s.Clock())
			if err := lease.Acquire(); err != nil {
				t.Errorf("sim lease acquire: %v", err)
				return
			}
			rep := NewReplicator(rm, ring.Addr, 0, lease.Epoch(), nil)
			if err := rep.Activate(); err != nil {
				t.Errorf("sim replicator activate: %v", err)
				return
			}
			appendErr = rep.Append(data)
		})
		if t.Failed() || appendErr != nil {
			return // protocol setup failed the test, or the ring refused the payload
		}

		pumped, err := host.CommittedBytes()
		if err != nil {
			t.Fatalf("committed bytes: %v", err)
		}
		if !bytes.Equal(pumped, data) {
			t.Fatalf("wire mangled journal bytes: sent %d bytes, committed %d", len(data), len(pumped))
		}
		sd, errD := Replay(data)
		sp, errP := Replay(pumped)
		if (errD == nil) != (errP == nil) {
			t.Fatalf("replay divergence through the sim wire: direct %v, pumped %v", errD, errP)
		}
		if errD == nil && !reflect.DeepEqual(sd, sp) {
			t.Fatalf("replayed state diverged:\n%+v\n%+v", sd, sp)
		}
	})
}

// FuzzEntryRoundTrip: whatever its field values, an entry decodes from its
// own encoding bit for bit, consuming exactly the encoded bytes, or the
// journal refuses it: Journal.put takes no entry DecodeEntry would refuse
// for its size, and an entry it takes is the one Encode writes. The seeds
// sit on the edges of each string form: empty, the %#x key form and the
// strings just outside it, the hex form up to its 64-byte limit and past
// it, and all-ones integers.
func FuzzEntryRoundTrip(f *testing.F) {
	hex64 := strings.Repeat("0123456789abcdef", 8) // 128 digits: 64 packed bytes
	for _, s := range []string{
		"",
		"0x0",
		"0x1a2b3c4d5e6f7081",
		"0xffffffffffffffff",
		"0x1ffffffffffffffff", // 17 digits: past a uint64
		"0x0123",              // leading zero: not how %#x spells it
		"0xABC",
		"abc",
		"0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef",
		hex64,
		hex64 + "00", // 130 digits: past the pack limit
		"udf-quickstart",
	} {
		f.Add(uint8(EntryPublish), uint64(1), uint64(1), s, "ingress", s, s, uint32(0), uint64(1), uint64(0x100), uint8(1))
	}
	f.Add(uint8(EntryClaim), uint64(math.MaxUint64), uint64(math.MaxUint64), "0x1", "", "", "",
		uint32(math.MaxUint32), uint64(math.MaxUint64), uint64(math.MaxUint64), uint8(math.MaxUint8))
	f.Add(uint8(EntryInvalid), uint64(0), uint64(0), "", "", "", "", uint32(0), uint64(0), uint64(0), uint8(0))
	f.Add(uint8(EntryPublish), uint64(1), uint64(1), "0x1", "ingress", strings.Repeat("x", maxEntryPayload), "",
		uint32(0), uint64(1), uint64(0x100), uint8(0)) // payload past the limit

	f.Fuzz(func(t *testing.T, ty uint8, seq, fence uint64, node, hook, name, digest string, arch uint32, version, blob uint64, flags uint8) {
		e := Entry{Type: EntryType(ty), Seq: seq, Fence: fence, Node: node, Hook: hook, Name: name,
			Digest: digest, Arch: arch, Version: version, Blob: blob, Flags: flags}
		enc := e.Encode([]byte("prefix"))[len("prefix"):]
		got, n, err := DecodeEntry(append(enc, "suffix"...))
		j := NewJournal(nil)
		j.SeedSeq(seq - 1)
		j.SetFenceSource(func() uint64 { return fence })
		putErr := j.Append(e)
		switch {
		case e.payloadLen() > maxEntryPayload:
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%d-byte payload: decode = %v, want ErrCorrupt", e.payloadLen(), err)
			}
			if !errors.Is(putErr, ErrEntryTooLarge) || j.Len() != 0 || j.repErrors.Value() != 1 {
				t.Fatalf("%d-byte payload: put = %v with %d entries and %d replication errors, want ErrEntryTooLarge, none and 1",
					e.payloadLen(), putErr, j.Len(), j.repErrors.Value())
			}
		case putErr != nil:
			t.Fatalf("put %+v: %v", e, putErr)
		case !bytes.Equal(j.Bytes(), enc):
			t.Fatal("the journal holds other bytes than Encode writes")
		case e.Type == EntryInvalid || e.Type > EntryClaim:
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("type %d: decode = %v, want ErrCorrupt", ty, err)
			}
		case err != nil:
			t.Fatalf("decode %+v: %v", e, err)
		case n != len(enc):
			t.Fatalf("consumed %d of %d bytes", n, len(enc))
		case got != e:
			t.Fatalf("round trip\n got %+v\nwant %+v", got, e)
		}
	})
}

// TestEntryCodecAllocs: encoding into a buffer with room allocates nothing,
// and decoding a publish entry allocates its four strings and no more,
// whatever form each is stored in.
func TestEntryCodecAllocs(t *testing.T) {
	e := Entry{Type: EntryPublish, Seq: 12345, Fence: 2, Node: "0x7f000001c0a8", Hook: "ingress",
		Name: "gen-7", Digest: strings.Repeat("0123456789abcdef", 4), Version: 7, Blob: 0xdead0000, Flags: 1}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { buf = e.Encode(buf[:0]) }); n != 0 {
		t.Errorf("encode allocates %v times per entry, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := DecodeEntry(buf); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("decode allocates %v times per publish entry, want at most 4", n)
	}
}

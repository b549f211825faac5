package controlha

import (
	"bytes"
	"errors"
	"reflect"
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
		swapped = append(swapped, entries[i].Encode()...)
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

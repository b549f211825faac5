package controlha

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"rdx/internal/core"
)

// publishEntry is a publish of version v on node n0, as core journals it.
func publishEntry(v uint64, batch bool) core.JournalEntry {
	return core.JournalEntry{Kind: core.EntryPublish, Node: "0x1", Hook: "ingress",
		Deployed: core.Deployed{Blob: 0x1000 + v, Version: v, Name: "gen", Digest: "sha256:gen"}, Batch: batch}
}

// TestFlightAcks pins what an ack from Journal waits for: a fleet job's
// batched entries fly together on the first wait, entries waited on at
// once fly one flight each as waiting appends do, a failed flight's error
// reaches every ack aboard it however late it is waited on, and an entry
// the journal refused or kept local answers at once.
func TestFlightAcks(t *testing.T) {
	t.Run("batched entries fly on the first wait", func(t *testing.T) {
		rig := newFlightRig(t, 0)
		var acks []core.Ack
		for v := uint64(1); v <= 5; v++ {
			acks = append(acks, rig.j.Journal(publishEntry(v, true)))
		}
		rig.expectFlights(t, 0, 0, 0, 0)
		if err := acks[4].Wait(); err != nil {
			t.Fatal(err)
		}
		for _, a := range acks {
			if err := a.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		rig.expectFlights(t, 1, 5, 0, 5)
		if got := rig.gate.verbs.Load(); got != 4 {
			t.Errorf("%d standby verbs, want one flight's 4", got)
		}
		rig.expectStandbyMirrors(t)
	})

	t.Run("entries waited on at once fly alone", func(t *testing.T) {
		// Two entries journaled before either is waited on: the first
		// boards a flight of its own, as a waiting append would, so the
		// second cannot share it.
		rig := newFlightRig(t, 0)
		a, b := rig.j.Journal(publishEntry(1, false)), rig.j.Journal(publishEntry(2, false))
		rig.expectFlights(t, 0, 0, 0, 0)
		if err := b.Wait(); err != nil {
			t.Fatal(err)
		}
		if err := a.Wait(); err != nil {
			t.Fatal(err)
		}
		rig.expectFlights(t, 2, 2, 0, 1)
		rig.expectStandbyMirrors(t)
	})

	t.Run("a failed flight fails its acks", func(t *testing.T) {
		rig := newFlightRig(t, 0)
		ok := rig.j.Journal(publishEntry(1, false))
		if err := ok.Wait(); err != nil {
			t.Fatal(err)
		}
		if _, err := rig.host.FenceRing(); err != nil {
			t.Fatal(err)
		}
		fenced := rig.j.Journal(publishEntry(2, false))
		for i := 0; i < 2; i++ { // aboard the flight, then after it landed
			if err := fenced.Wait(); !errors.Is(err, ErrFencedAppend) {
				t.Fatalf("wait %d on a fenced entry: %v, want ErrFencedAppend", i, err)
			}
		}
		if err := ok.Wait(); err != nil {
			t.Errorf("an entry that landed before the fence now waits with %v", err)
		}
		rig.expectFlights(t, 2, 1, 1, 1)
	})

	t.Run("refused and local entries answer at once", func(t *testing.T) {
		rig := newFlightRig(t, 0)
		huge := publishEntry(1, false)
		huge.Name = strings.Repeat("n", maxEntryPayload)
		if err := rig.j.Journal(huge).Wait(); !errors.Is(err, ErrEntryTooLarge) {
			t.Errorf("ack of an oversized entry: %v, want ErrEntryTooLarge", err)
		}
		rig.j.SetReplicator(nil)
		if err := rig.j.Journal(publishEntry(2, false)).Wait(); err != nil {
			t.Errorf("ack of an entry journaled with no stream: %v", err)
		}
		if flights, failed := rig.counter("flights"), rig.counter("replication_errors"); flights != 0 || failed != 1 {
			t.Errorf("%d flights and %d replication errors, want none and the refusal", flights, failed)
		}
	})
}

// TestJournalEncodesLikeTheSinkMethods: an entry journaled through
// Journal encodes to the bytes the matching JournalSink method appends.
func TestJournalEncodesLikeTheSinkMethods(t *testing.T) {
	d := core.Deployed{Blob: 0xdead0000, Version: 7, Name: "gen-7", Digest: strings.Repeat("ab", 32), Reclaimed: true}
	sink, acked := NewJournal(nil), NewJournal(nil)
	sink.JournalValidate(d.Digest)
	sink.JournalCompile(d.Digest, 2)
	sink.JournalClaim("0x7f01", d.Blob)
	sink.JournalStage("0x7f01", "ingress", d.Name, d.Digest, d.Version, d.Blob)
	sink.JournalPublish("0x7f01", "ingress", d)
	sink.JournalRollback("0x7f01", "ingress", d)
	for _, e := range []core.JournalEntry{
		{Kind: core.EntryValidate, Deployed: core.Deployed{Digest: d.Digest}},
		{Kind: core.EntryCompile, Deployed: core.Deployed{Digest: d.Digest}, Arch: 2},
		{Kind: core.EntryClaim, Node: "0x7f01", Deployed: core.Deployed{Blob: d.Blob}, Batch: true},
		{Kind: core.EntryStage, Node: "0x7f01", Hook: "ingress", Deployed: core.Deployed{
			Name: d.Name, Digest: d.Digest, Version: d.Version, Blob: d.Blob}, Batch: true},
		{Kind: core.EntryPublish, Node: "0x7f01", Hook: "ingress", Deployed: d},
		{Kind: core.EntryRollback, Node: "0x7f01", Hook: "ingress", Deployed: d},
	} {
		if err := acked.Journal(e).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(acked.Bytes(), sink.Bytes()) {
		t.Errorf("Journal encoded %x, the sink methods %x", acked.Bytes(), sink.Bytes())
	}
}

package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"rdx/internal/mem"
	"rdx/internal/rdma"
	"rdx/internal/verbchain"
)

// The wire-vs-sim conformance table. Every row runs twice against two
// identically built endpoints — once through an rdma.QP over an
// rdma.Fabric, once through a sim.QP under a deterministic schedule — and
// must produce the same observations, the same errors.Is class, the same
// doorbell rings and the same arena bytes. The wire is the reference: the
// model checker is only worth running if it fires the verb semantics that
// ship.

// confWorld is one endpoint with the table's fixed layout.
type confWorld struct {
	ep    *rdma.Endpoint
	arena *mem.Arena
	rkey  map[string]uint32
	bells []string // doorbell rings, in order
}

// Layout. Chain regions are armed straight into the arena at build time
// so both worlds start byte-identical.
const (
	cwRW          = 0x000 // "rw"     [0x000,+128) PermAll; doorbell window [0x20,+16)
	cwRO          = 0x080 // "ro"     [0x080,+64)  PermRead
	cwData2       = 0x0C0 // "data2"  [0x0C0,+64)  PermAll
	cwChainAtomic = 0x400 // "chain-atomic" PermAtomic only, valid resident program
	cwChainTight  = 0x800 // "chain-tight"  PermAll, MR ends 8 bytes into the program
	cwChain       = 0xC00 // "chain"  PermAll, two steps: rw then data2
	cwArena       = 0x1000
)

func newConfWorld(t *testing.T) *confWorld {
	t.Helper()
	w := &confWorld{arena: mem.NewArena(cwArena), rkey: map[string]uint32{}}
	w.ep = rdma.NewEndpoint(w.arena, nil)
	reg := func(name string, addr mem.Addr, n uint64, perm rdma.Perm) {
		mr, err := w.ep.RegisterMR(name, addr, n, perm)
		if err != nil {
			t.Fatal(err)
		}
		w.rkey[name] = mr.RKey
	}
	reg("rw", cwRW, 128, rdma.PermAll)
	reg("ro", cwRO, 64, rdma.PermRead)
	reg("data2", cwData2, 64, rdma.PermAll)
	w.ep.RegisterDoorbell(cwRW+0x20, 16, func(imm uint32, addr mem.Addr, data []byte) {
		w.bells = append(w.bells, fmt.Sprintf("imm=%#x addr=%#x len=%d", imm, addr, len(data)))
	})

	arm := func(base mem.Addr, ops ...verbchain.Op) int {
		region := verbchain.EncodeRegion(&verbchain.Program{Ops: ops})
		if err := w.arena.Write(base, region); err != nil {
			t.Fatal(err)
		}
		return len(region)
	}
	store := func(rkey uint32, addr uint64, v uint64) verbchain.Op {
		return verbchain.Op{Kind: verbchain.KindWrite, RKey: rkey, Addr: addr, Src: verbchain.Imm(v), Dst: verbchain.NoReg}
	}
	n := arm(cwChainAtomic, store(w.rkey["rw"], cwRW+0x40, 1))
	reg("chain-atomic", cwChainAtomic, uint64(n), rdma.PermAtomic)
	arm(cwChainTight, store(w.rkey["rw"], cwRW+0x48, 2))
	reg("chain-tight", cwChainTight, verbchain.OffProg+8, rdma.PermAll)
	n = arm(cwChain, store(w.rkey["rw"], cwRW+0x50, 3), store(w.rkey["data2"], cwData2, 4))
	reg("chain", cwChain, uint64(n), rdma.PermAll)
	return w
}

// class names the errors.Is class of a verb result.
func class(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, rdma.ErrAccess):
		return "ErrAccess"
	case errors.Is(err, rdma.ErrBounds):
		return "ErrBounds"
	case errors.Is(err, rdma.ErrOp):
		return "ErrOp"
	case errors.Is(err, rdma.ErrChainRevoked):
		return "ErrChainRevoked"
	case errors.Is(err, rdma.ErrChainFault):
		return "ErrChainFault"
	}
	return "unclassified: " + err.Error()
}

var ctx = context.Background()

type confRow struct {
	name string
	// run issues verbs through v and returns what the initiator observed.
	run func(w *confWorld, v rdma.Verbs) []string
	// want is what the wire observes — the reference, spelled out.
	want []string
}

func chainObs(res rdma.ChainResult, err error) string {
	return fmt.Sprintf("%s code=%d pc=%d steps=%d trigger=%d", class(err), res.Code(), res.PC(), res.Steps, res.Trigger)
}

var confRows = []confRow{
	{
		name: "write then read round-trips",
		run: func(w *confWorld, v rdma.Verbs) []string {
			werr := v.WriteCtx(ctx, w.rkey["rw"], cwRW+8, []byte("abcdefgh"))
			b, rerr := v.ReadCtx(ctx, w.rkey["rw"], cwRW+8, 8)
			return []string{class(werr), class(rerr), string(b)}
		},
		want: []string{"ok", "ok", "abcdefgh"},
	},
	{
		name: "bounds, permission and unknown-rkey taxonomy",
		run: func(w *confWorld, v rdma.Verbs) []string {
			_, oob := v.ReadCtx(ctx, w.rkey["ro"], cwRO+56, 16)
			perm := v.WriteCtx(ctx, w.rkey["ro"], cwRO, []byte{1})
			_, unknown := v.CompareAndSwapCtx(ctx, 0x9999, cwRW, 0, 1)
			return []string{class(oob), class(perm), class(unknown)}
		},
		want: []string{"ErrBounds", "ErrAccess", "ErrAccess"},
	},
	{
		// Drift 1: the sim triggered on PermAtomic alone.
		name: "chain trigger needs read|write|atomic on the region",
		run: func(w *confWorld, v rdma.Verbs) []string {
			return []string{chainObs(v.ChainTriggerCtx(ctx, w.rkey["chain-atomic"], cwChainAtomic, 0))}
		},
		want: []string{"ErrAccess code=0 pc=0 steps=0 trigger=0"},
	},
	{
		// Drift 2: the sim read the program out of the arena past the MR.
		name: "resident program running past its MR faults",
		run: func(w *confWorld, v rdma.Verbs) []string {
			return []string{chainObs(v.ChainTriggerCtx(ctx, w.rkey["chain-tight"], cwChainTight, 0))}
		},
		want: []string{"ErrChainFault code=2 pc=0 steps=0 trigger=1"},
	},
	{
		// Drift 3: the sim reported ErrBounds.
		name: "misaligned atomics are ErrOp",
		run: func(w *confWorld, v rdma.Verbs) []string {
			_, cas := v.CompareAndSwapCtx(ctx, w.rkey["rw"], cwRW+4, 0, 1)
			_, fa := v.FetchAddCtx(ctx, w.rkey["rw"], cwRW+12, 1)
			return []string{class(cas), class(fa)}
		},
		want: []string{"ErrOp", "ErrOp"},
	},
	{
		// Drift 4: the sim never rang doorbells.
		name: "WRITE_IMM and a HasImm batch sub-op ring the doorbell",
		run: func(w *confWorld, v rdma.Verbs) []string {
			imm := v.WriteImmCtx(ctx, w.rkey["rw"], cwRW+0x20, 0xBEEF, []byte{1, 2})
			batch := v.WriteBatchCtx(ctx, []rdma.BatchOp{
				{RKey: w.rkey["rw"], Addr: cwRW, Data: []byte{3}},
				{RKey: w.rkey["rw"], Addr: cwRW + 0x28, Data: []byte{4, 5, 6}, Imm: 0xCAFE, HasImm: true},
			})
			return []string{class(imm), class(batch), fmt.Sprint(w.bells)}
		},
		want: []string{"ok", "ok", "[imm=0xbeef addr=0x20 len=2 imm=0xcafe addr=0x28 len=3]"},
	},
	{
		name: "a failing middle sub-op flushes the rest of the batch",
		run: func(w *confWorld, v rdma.Verbs) []string {
			err := v.WriteBatchCtx(ctx, []rdma.BatchOp{
				{RKey: w.rkey["rw"], Addr: cwRW, Data: []byte{0xA1}},
				{RKey: w.rkey["ro"], Addr: cwRO, Data: []byte{0xA2}},
				{RKey: w.rkey["rw"], Addr: cwRW + 16, Data: []byte{0xA3}},
			})
			first, _ := w.arena.Read(cwRW, 1)
			third, _ := w.arena.Read(cwRW+16, 1)
			return []string{class(err), fmt.Sprintf("first=%#x third=%#x", first[0], third[0])}
		},
		want: []string{"ErrAccess", "first=0xa1 third=0x0"},
	},
	{
		name: "every verb on a rotated rkey is ErrAccess; the fresh rkey works",
		run: func(w *confWorld, v rdma.Verbs) []string {
			old := w.rkey["rw"]
			fresh, rot := v.RotateMRCtx(ctx, "rw")
			_, rd := v.ReadCtx(ctx, old, cwRW, 8)
			wr := v.WriteCtx(ctx, old, cwRW, []byte{1})
			_, cas := v.CompareAndSwapCtx(ctx, old, cwRW, 0, 1)
			_, fa := v.FetchAddCtx(ctx, old, cwRW, 1)
			again := v.WriteCtx(ctx, fresh, cwRW, []byte{9})
			_, unknown := v.RotateMRCtx(ctx, "no-such-mr")
			mrs, q := v.QueryMRs()
			return []string{class(rot), class(rd), class(wr), class(cas), class(fa), class(again), class(unknown),
				class(q), fmt.Sprint(mrs)}
		},
		want: []string{"ok", "ErrAccess", "ErrAccess", "ErrAccess", "ErrAccess", "ok", "ErrOp", "ok",
			"[{ro 4097 128 64 1} {data2 4098 192 64 7} {chain-atomic 4099 1024 188 4} {chain-tight 4100 2048 96 7} {chain 4101 3072 244 7} {rw 4102 0 128 7}]"},
	},
	{
		name: "a chain step whose rkey was rotated revokes the rest of the chain",
		run: func(w *confWorld, v rdma.Verbs) []string {
			_, rot := v.RotateMRCtx(ctx, "data2")
			res, err := v.ChainTriggerCtx(ctx, w.rkey["chain"], cwChain, 0)
			landed, _ := w.arena.ReadQword(cwRW + 0x50)
			fenced, _ := w.arena.ReadQword(cwData2)
			return []string{class(rot), chainObs(res, err), fmt.Sprintf("landed=%d fenced=%d", landed, fenced)}
		},
		want: []string{"ok", "ErrChainRevoked code=3 pc=1 steps=2 trigger=1", "landed=3 fenced=0"},
	},
}

// overWire runs body through an rdma.QP dialled over an in-process fabric.
func overWire(t *testing.T, w *confWorld, body func(rdma.Verbs)) {
	t.Helper()
	fab := rdma.NewFabric()
	l, err := fab.Listen("h")
	if err != nil {
		t.Fatal(err)
	}
	go w.ep.Serve(l)
	qp, err := fab.DialQP("h")
	if err != nil {
		t.Fatal(err)
	}
	body(qp)
	qp.Close()
	w.ep.Close()
}

// underSim runs body as the single proc of a deterministic schedule.
func underSim(t *testing.T, w *confWorld, body func(rdma.Verbs)) {
	t.Helper()
	s := New(Config{Det: true})
	n := NewNet(s)
	n.AddHost("h", w.ep)
	s.Spawn("proc", func() { body(n.QP("c", "h")) })
	if res := s.Run(); res.Violation != nil {
		t.Fatalf("unexpected violation: %v", res.Violation)
	}
	w.ep.Close()
}

func TestWireSimConformance(t *testing.T) {
	for _, row := range confRows {
		t.Run(row.name, func(t *testing.T) {
			wire, sim := newConfWorld(t), newConfWorld(t)
			var wireObs, simObs []string
			overWire(t, wire, func(v rdma.Verbs) { wireObs = row.run(wire, v) })
			underSim(t, sim, func(v rdma.Verbs) { simObs = row.run(sim, v) })

			if !reflect.DeepEqual(wireObs, row.want) {
				t.Errorf("wire observed %q, want %q", wireObs, row.want)
			}
			if !reflect.DeepEqual(simObs, wireObs) {
				t.Errorf("sim observed  %q\nwire observed %q", simObs, wireObs)
			}
			if !reflect.DeepEqual(sim.bells, wire.bells) {
				t.Errorf("doorbells: sim %q, wire %q", sim.bells, wire.bells)
			}
			wb, _ := wire.arena.Read(0, cwArena)
			sb, _ := sim.arena.Read(0, cwArena)
			if !bytes.Equal(wb, sb) {
				for i := range wb {
					if wb[i] != sb[i] {
						t.Errorf("arena bytes diverge at %#x: sim %#x, wire %#x", i, sb[i], wb[i])
						break
					}
				}
			}
		})
	}
}

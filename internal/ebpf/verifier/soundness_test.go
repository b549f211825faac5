package verifier

import (
	"errors"
	"math/rand"
	"testing"

	"rdx/internal/ebpf"
	"rdx/internal/ebpf/jit"
	"rdx/internal/ebpf/maps"
	"rdx/internal/ebpf/progen"
	"rdx/internal/ebpf/vm"
	"rdx/internal/native"
	"rdx/internal/xabi"
)

// TestVerifierSoundnessFuzz is the verifier's core safety property, checked
// adversarially: take valid generated programs, corrupt random instruction
// fields, and require that
//
//  1. the verifier never panics on arbitrary input,
//  2. any program the verifier ACCEPTS executes to completion in the
//     interpreter with no memory fault, no fuel exhaustion, and no helper
//     error, and
//  3. accepted programs behave identically under the interpreter and the
//     JIT+native engine (the differential property extends to adversarial
//     inputs, not just generator outputs).
//
// This is exactly the guarantee remote injection rests on: whatever the
// control plane validates may be dropped into a sandbox and run.
func TestVerifierSoundnessFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(20260706))
	rounds := 4000
	if testing.Short() {
		rounds = 500
	}

	accepted, rejected := 0, 0
	for round := 0; round < rounds; round++ {
		base := progen.MustGenerate(progen.Options{
			Size:        48 + rng.Intn(160),
			Seed:        int64(round % 17),
			WithMap:     round%2 == 0,
			WithHelpers: true,
		})
		p := base.Clone()
		mutate(rng, p.Insns)

		res, err := verifyNoPanic(t, p)
		if err != nil {
			rejected++
			continue
		}
		_ = res
		accepted++
		runAccepted(t, rng, p, round)
	}
	if accepted == 0 {
		t.Fatal("fuzz never produced an accepted program; mutation too destructive")
	}
	t.Logf("fuzz: %d accepted, %d rejected", accepted, rejected)
}

// mutate corrupts 1–4 random instruction slots.
func mutate(rng *rand.Rand, insns []ebpf.Instruction) {
	n := 1 + rng.Intn(4)
	for i := 0; i < n; i++ {
		idx := rng.Intn(len(insns))
		ins := &insns[idx]
		switch rng.Intn(5) {
		case 0:
			ins.Op = uint8(rng.Intn(256))
		case 1:
			ins.Dst = uint8(rng.Intn(16)) // includes invalid registers
		case 2:
			ins.Src = uint8(rng.Intn(16))
		case 3:
			ins.Off = int16(rng.Intn(1<<16) - 1<<15)
		case 4:
			ins.Imm = rng.Int31() - 1<<30
		}
	}
}

func verifyNoPanic(t *testing.T, p *ebpf.Program) (res *Result, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("verifier PANICKED on mutated program: %v\n%s", r, disasm(p))
		}
	}()
	return Verify(p, Config{})
}

// runAccepted executes an accepted program on both engines and asserts
// memory safety plus cross-engine agreement.
func runAccepted(t *testing.T, rng *rand.Rand, p *ebpf.Program, round int) {
	t.Helper()

	// Back any maps with a real in-region instance, as the loader would.
	const mapBase = 0x3000_0000
	var env *xabi.Env
	mkEnv := func() *xabi.Env {
		e := &xabi.Env{
			NowNS:   func() uint64 { return 99 },
			RandU32: func() uint32 { return 7 },
		}
		if len(p.Maps) > 0 {
			backing := make([]byte, maps.Size(p.Maps[0]))
			mem, err := xabi.NewRegionMemory(&xabi.Region{
				Base: mapBase, Data: backing, Writable: true, Name: "xs",
			})
			if err != nil {
				t.Fatal(err)
			}
			view, err := maps.Create(mem, mapBase, p.Maps[0])
			if err != nil {
				t.Fatal(err)
			}
			e.Mem = mem
			e.Maps = xabi.HandleMapResolver{mapBase: view}
		}
		return e
	}
	env = mkEnv()

	pVM := p.Clone()
	for _, ref := range pVM.MapRefs() {
		ebpf.SetImm64(pVM.Insns, ref.InsnIdx, mapBase)
		pVM.Insns[ref.InsnIdx].Src = 0
	}
	ctx := make([]byte, xabi.CtxSize)
	rng.Read(ctx[64:]) // the payload bytes of xabi's context layout
	ctxVM := append([]byte(nil), ctx...)

	want, err := vm.New(vm.Options{Env: env, Fuel: 1 << 20}).Run(pVM, ctxVM)
	if err != nil {
		if errors.Is(err, vm.ErrFuel) {
			t.Fatalf("round %d: VERIFIED program exhausted fuel (termination hole):\n%s", round, disasm(p))
		}
		t.Fatalf("round %d: VERIFIED program faulted in interpreter: %v\n%s", round, err, disasm(p))
	}

	// Differential: JIT + native engine must agree.
	bin, err := jit.Compile(p, native.ArchX64)
	if err != nil {
		t.Fatalf("round %d: verified program failed to compile: %v", round, err)
	}
	helperAddrs := map[uint64]xabi.HelperFn{}
	next := uint64(0xF000_0000)
	err = native.Link(bin, func(kind native.RelocKind, sym string) (uint64, bool) {
		switch kind {
		case native.RelocMap:
			return mapBase, true
		case native.RelocHelper:
			for id, fn := range vm.DefaultHelpers() {
				if jit.HelperSymbol(int(id)) == sym {
					next += 0x10
					helperAddrs[next] = fn
					return next, true
				}
			}
		}
		return 0, false
	})
	if err != nil {
		t.Fatalf("round %d: link: %v", round, err)
	}
	np, err := native.DecodeProgram(bin.Arch, bin.Code)
	if err != nil {
		t.Fatalf("round %d: decode: %v", round, err)
	}
	ctxN := append([]byte(nil), ctx...)
	got, err := (&native.Engine{HelperAddrs: helperAddrs, Fuel: 1 << 20}).Run(np, mkEnv(), ctxN)
	if err != nil {
		t.Fatalf("round %d: verified program faulted in native engine: %v\n%s", round, err, disasm(p))
	}
	// Helper-order effects (prandom etc.) are deterministic in this env,
	// so results must match exactly. Map contents may differ between the
	// two fresh environments only if execution diverged — caught by r0.
	if got != want {
		t.Fatalf("round %d: engines disagree: vm=%#x native=%#x\n%s", round, want, got, disasm(p))
	}
}

func disasm(p *ebpf.Program) string {
	out := ""
	for i, ins := range p.Insns {
		if i > 60 {
			out += "  ...\n"
			break
		}
		out += "  " + ins.String() + "\n"
	}
	return out
}

package verifier

import (
	"math/rand"
	"sync"
	"testing"

	"rdx/internal/ebpf"
	"rdx/internal/ebpf/progen"
)

// randomState draws an absState from the shapes the analysis produces: each
// register uninit, a scalar (constant or not) or a pointer-like type with a
// small offset and map index, over a random stack bitmap. The value ranges
// are small so that two draws agree on a register often enough to exercise
// the "same on both paths" arm of join as well as the degrading ones.
func randomState(rng *rand.Rand) absState {
	var s absState
	for r := range s.regs {
		switch typ := regType(rng.Intn(int(tMapValue) + 1)); typ {
		case tUninit:
		case tScalar:
			if rng.Intn(2) == 0 {
				s.regs[r] = constScalar(int64(rng.Intn(3)))
			} else {
				s.regs[r] = scalar()
			}
		default:
			s.regs[r] = regState{typ: typ, off: int64(rng.Intn(2) * 8), mapIdx: int32(rng.Intn(2))}
		}
	}
	for w := range s.stack {
		s.stack[w] = uint8(rng.Intn(256)) | uint8(rng.Intn(256))
	}
	return s
}

// canon erases what no check reads: join leaves a stale constVal behind when
// it degrades a constant to an unknown scalar.
func canon(s absState) absState {
	for r := range s.regs {
		if !s.regs[r].constKnown {
			s.regs[r].constVal = 0
		}
	}
	return s
}

// TestJoinCommutativeIdempotent is what the single pass rests on: an
// instruction is stepped once, on its predecessors' outputs folded together
// in whatever order the traversal reaches them, so the fold must not depend
// on that order, and folding a state into itself must change nothing.
func TestJoinCommutativeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(20261001))
	for i := 0; i < 20000; i++ {
		a, b, c := randomState(rng), randomState(rng), randomState(rng)

		ab, ba := a, b
		join(&ab, &b)
		join(&ba, &a)
		if canon(ab) != canon(ba) {
			t.Fatalf("round %d: join not commutative\n a=%+v\n b=%+v\n a⊔b=%+v\n b⊔a=%+v", i, a, b, ab, ba)
		}

		aa := a
		if join(&aa, &a) || aa != a {
			t.Fatalf("round %d: join not idempotent\n a=%+v\n a⊔a=%+v", i, a, aa)
		}
		again := ab
		if join(&again, &b) || again != ab {
			t.Fatalf("round %d: joining b in twice changed the result\n a⊔b=%+v\n (a⊔b)⊔b=%+v", i, ab, again)
		}

		// Three predecessors: any fold order gives the same state.
		abc, cba := ab, c
		join(&abc, &c)
		join(&cba, &b)
		join(&cba, &a)
		if canon(abc) != canon(cba) {
			t.Fatalf("round %d: join not associative\n (a⊔b)⊔c=%+v\n (c⊔b)⊔a=%+v", i, abc, cba)
		}
	}
}

// TestStackBitmapMasks checks the word-at-a-time bitmap operations against
// the per-byte definition, over every range that fits the stack.
func TestStackBitmapMasks(t *testing.T) {
	const n = len(absState{}.stack) * 8
	for off := 0; off < n; off++ {
		for size := 0; off+size <= n; size++ {
			var s absState
			s.stackInit(off, size)
			for b := 0; b < n; b++ {
				if got, want := s.stack[b/8]&(1<<(b%8)) != 0, b >= off && b < off+size; got != want {
					t.Fatalf("stackInit(%d, %d): byte %d init=%t, want %t", off, size, b, got, want)
				}
			}
			if !s.stackAllInit(off, size) {
				t.Fatalf("stackAllInit(%d, %d) false after stackInit", off, size)
			}
			for _, hole := range []int{off, off + size/2, off + size - 1} {
				if size == 0 {
					break
				}
				h := s
				h.stack[hole/8] &^= 1 << (hole % 8)
				if h.stackAllInit(off, size) {
					t.Fatalf("stackAllInit(%d, %d) true with byte %d uninitialized", off, size, hole)
				}
			}
		}
	}
}

func steadyStateProgram(size int) *ebpf.Program {
	return progen.MustGenerate(progen.Options{Size: size, Seed: 1, WithMap: true, WithHelpers: true})
}

// TestVerifySteadyStateAllocs gates the pooled scratch: once the pool is
// warm, verifying the Fig 4b program allocates its Result and little else
// (the worklist verifier allocated one state per instruction, 1 323 objects).
func TestVerifySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	p := steadyStateProgram(1300)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Verify(p, Config{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("steady-state Verify of %d insns: %.0f allocs/op, want ≤ 8", len(p.Insns), allocs)
	}
}

// TestPooledScratchIsolated verifies large, small, then large programs from
// several goroutines at once — so scratch grown for one program is reused,
// dirty, for a shorter and then a longer one — and requires every verdict to
// match a single-threaded run. Mutated programs make some of the runs leave
// the pass early, with states still in flight. Run under -race.
func TestPooledScratchIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var progs []*ebpf.Program
	for _, size := range []int{2600, 600, 2600} {
		p := steadyStateProgram(size)
		progs = append(progs, p)
		for m := 0; m < 3; m++ {
			bad := p.Clone()
			mutate(rng, bad.Insns)
			progs = append(progs, bad)
		}
	}
	want := make([]string, len(progs))
	for i, p := range progs {
		want[i] = verdictLine(p)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for k := range progs {
					i := (k + g) % len(progs) // goroutines interleave different sizes
					if round%2 == 1 {
						i = k
					}
					if got := verdictLine(progs[i]); got != want[i] {
						t.Errorf("goroutine %d round %d program %d: got %q, single-threaded %q", g, round, i, got, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

package verifier

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"rdx/internal/ebpf"
	"rdx/internal/ebpf/progen"
)

const goldenPath = "testdata/verdicts.golden"

// goldenCorpus visits the 2 000 programs of the golden-verdict corpus: 1 000
// seeded progen programs of 50–3 000 instructions, with and without helpers
// and maps, each followed by a copy corrupted by the soundness fuzz's mutate.
func goldenCorpus(visit func(id string, p *ebpf.Program)) {
	rng := rand.New(rand.NewSource(20261001))
	for i := 0; i < 1000; i++ {
		opts := progen.Options{
			Size:        50 + rng.Intn(2951),
			Seed:        int64(i),
			WithMap:     i%2 == 0,
			WithHelpers: i%4 < 2,
		}
		if i%5 == 0 {
			opts.Size = 50 + rng.Intn(200) // small programs survive mutation more often
		}
		base := progen.MustGenerate(opts)
		id := fmt.Sprintf("%d/size=%d/map=%t/helpers=%t", i, opts.Size, opts.WithMap, opts.WithHelpers)
		visit(id, base)
		mut := base.Clone()
		mutate(rng, mut.Insns)
		visit(id+"/mutated", mut)
	}
}

// verdictLine renders everything Verify decides about p except Elapsed. The
// part before " @ " is the verdict proper (accept with the proved facts, or
// reject); the part after it says where and why a reject was reported.
func verdictLine(p *ebpf.Program) string {
	res, err := Verify(p, Config{})
	if err == nil {
		return fmt.Sprintf("accept stack=%d ctx=%d insns=%d branches=%d lookup=%t update=%t writesctx=%t",
			res.StackDepth, res.MaxCtxOffset, res.Insns, res.Branches,
			res.UsesMapLookup, res.UsesMapUpdate, res.WritesCtx)
	}
	var ve *Error
	if errors.As(err, &ve) {
		return fmt.Sprintf("reject @ %d %s", ve.InsnIdx, ve.Reason)
	}
	return "reject @ -1 " + err.Error()
}

// movedRejects lists the corpus programs that both verifiers reject but at a
// different instruction. A program with two faults has two correct answers
// and the traversal picks one: the worklist reported the first fault along its
// taken-branch-first walk over partly joined states, the single pass reports
// the first in topological order.
var movedRejects = map[string]bool{
	"83/size=832/map=false/helpers=false/mutated":   true,
	"92/size=2425/map=true/helpers=true/mutated":    true,
	"140/size=113/map=true/helpers=true/mutated":    true,
	"178/size=1989/map=true/helpers=false/mutated":  true,
	"368/size=2986/map=true/helpers=true/mutated":   true,
	"466/size=893/map=true/helpers=false/mutated":   true,
	"659/size=1244/map=false/helpers=false/mutated": true,
	"897/size=776/map=false/helpers=true/mutated":   true,
}

// TestGoldenVerdicts pins what "same verifier" means across rewrites of the
// analysis: testdata/verdicts.golden was recorded from the worklist verifier
// (the parent of the single-pass one), and every accept/reject and every
// accepted Result must be reproduced exactly. A reject must be reported at
// the same instruction for the same reason unless movedRejects lists it.
func TestGoldenVerdicts(t *testing.T) {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		id, line, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[id] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	seen, accepts, moved := 0, 0, 0
	goldenCorpus(func(id string, p *ebpf.Program) {
		seen++
		got := verdictLine(p)
		w, ok := want[id]
		if !ok {
			t.Errorf("%s: not in %s", id, goldenPath)
			return
		}
		if strings.HasPrefix(got, "accept") {
			accepts++
		}
		gotVerdict, _, _ := strings.Cut(got, " @ ")
		wantVerdict, _, _ := strings.Cut(w, " @ ")
		switch {
		case gotVerdict != wantVerdict:
			t.Errorf("%s: verdict changed\n  golden: %s\n  got:    %s", id, w, got)
		case (got != w) != movedRejects[id]:
			t.Errorf("%s: reject moved=%t, listed in movedRejects=%t\n  golden: %s\n  got:    %s", id, got != w, movedRejects[id], w, got)
		case got != w:
			moved++
		}
	})
	if seen != len(want) || seen != 2000 {
		t.Errorf("corpus has %d programs, golden file %d, want 2000 each", seen, len(want))
	}
	if accepts < seen/2 || accepts == seen {
		t.Errorf("%d of %d programs accepted: the corpus must exercise both verdicts", accepts, seen)
	}
	t.Logf("%d programs, %d accepted, %d rejects reported at a different instruction", seen, accepts, moved)
}

package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"rdx/internal/native"
	"rdx/internal/telemetry"
)

// recordingSink is a JournalSink that keeps the type of every entry.
type recordingSink struct {
	mu      sync.Mutex
	entries []string
}

func (s *recordingSink) add(e string) {
	s.mu.Lock()
	s.entries = append(s.entries, e)
	s.mu.Unlock()
}

// take returns the entries recorded since the last take.
func (s *recordingSink) take() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.entries
	s.entries = nil
	return out
}

func (s *recordingSink) JournalValidate(string)                      { s.add("validate") }
func (s *recordingSink) JournalCompile(string, native.Arch)          { s.add("compile") }
func (s *recordingSink) JournalStage(_, _, _, _ string, _, _ uint64) { s.add("stage") }
func (s *recordingSink) JournalPublish(string, string, Deployed)     { s.add("publish") }
func (s *recordingSink) JournalRollback(string, string, Deployed)    { s.add("rollback") }
func (s *recordingSink) JournalClaim(string, uint64)                 { s.add("claim") }
func (s *recordingSink) JournalReclaim(string, uint64)               { s.add("reclaim") }
func (s *recordingSink) JournalHandoff(uint64) error                 { s.add("handoff"); return nil }

// verbOps are the opcodes a publish path can issue.
var verbOps = []string{"read", "write", "cas", "fetch_add", "write_imm", "batch"}

// verbsDuring returns how many verbs of each opcode fn issued, from the
// control plane's rdma.qp.verbs.<op> counters (zero counts omitted).
func verbsDuring(reg *telemetry.Registry, fn func()) map[string]uint64 {
	before := make(map[string]uint64, len(verbOps))
	for _, op := range verbOps {
		before[op] = reg.Counter("rdma.qp.verbs." + op).Value()
	}
	fn()
	out := map[string]uint64{}
	for _, op := range verbOps {
		if n := reg.Counter("rdma.qp.verbs."+op).Value() - before[op]; n > 0 {
			out[op] = n
		}
	}
	return out
}

// TestPublishPathVerbs pins, per publish path, the verbs it puts on the
// node link and the journal entries it emits — the counts the parent
// commit issued before the four dispatch-CAS sites became one flip.
func TestPublishPathVerbs(t *testing.T) {
	r := newRig(t, 1)
	cf := r.cfs[0]
	sink := &recordingSink{}
	r.cp.SetJournal(sink)

	check := func(name string, fn func(), verbs map[string]uint64, entries ...string) {
		t.Helper()
		sink.take()
		got := verbsDuring(r.cp.Registry, fn)
		if !reflect.DeepEqual(got, verbs) {
			t.Errorf("%s: verbs %v, want %v", name, got, verbs)
		}
		if rec := sink.take(); fmt.Sprint(rec) != fmt.Sprint(entries) {
			t.Errorf("%s: journal %v, want %v", name, rec, entries)
		}
	}
	inject := func(e string, ret int32) func() {
		return func() {
			if _, err := cf.InjectExtension(constProg(e, ret), "ingress"); err != nil {
				t.Fatal(err)
			}
		}
	}

	check("cold inject", inject("pp-a", 1),
		map[string]uint64{"fetch_add": 2, "batch": 1, "write": 1, "read": 1, "cas": 1, "write_imm": 1},
		"validate", "compile", "publish")
	inject("pp-b", 2)()
	check("resident re-inject", inject("pp-a", 1),
		map[string]uint64{"fetch_add": 1, "write": 1, "read": 1, "cas": 1, "write_imm": 1},
		"publish")
	check("rollback", func() {
		if _, err := cf.Rollback("ingress"); err != nil {
			t.Fatal(err)
		}
	}, map[string]uint64{"write": 1, "read": 1, "cas": 1, "write_imm": 1},
		"rollback")

	// Through the scheduler: two full stages fill the hook's slots, the
	// third claims the displaced standby and stages a page delta into it.
	check("scheduler full stage + publish", func() { injectOn(t, r.cp, cf, bigProg("pp-s1", 11)) },
		map[string]uint64{"fetch_add": 2, "batch": 1, "write": 1, "read": 1, "cas": 1, "write_imm": 1},
		"validate", "compile", "stage", "publish")
	injectOn(t, r.cp, cf, bigProg("pp-s2", 12))
	check("delta stage + publish", func() { injectOn(t, r.cp, cf, bigProg("pp-s3", 13)) },
		map[string]uint64{"fetch_add": 1, "batch": 1, "write": 1, "read": 1, "cas": 1, "write_imm": 1},
		"validate", "compile", "claim", "stage", "publish")
}

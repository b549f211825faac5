package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"rdx/internal/cluster"
	"rdx/internal/ebpf"
	"rdx/internal/ebpf/progen"
	"rdx/internal/ext"
	"rdx/internal/shard"
)

// inputs is a workload's seeded job generator: one independent stream per
// client, a pure function of (workload, seed, sizes). The program under test
// sees nothing of the seed but the shard.Jobs these streams produce.
type inputs struct {
	next []func() *shard.Job // by client
	// exts is every extension the streams can name that set-up must know
	// beforehand: flip/failover generations, the rollout pool. Empty on cold.
	exts []*ext.Extension
	// verdict gives, by digest, what a node's hook must return once that
	// extension is live. Cold programs call clock/PRNG helpers and have none.
	verdict map[string]uint64
}

var coldSizes = []int{600, 1300, 2600}

// clientsOf is how many closed-loop clients a workload drives: callers are
// tenants' deploy pipelines blocking on Router.Publish.
func clientsOf(workload string, nproc int) int {
	if workload == "failover" {
		return 1
	}
	return min(2, nproc)
}

func newInputs(workload string, seed int64, sz sizes, p plan, clients int) (*inputs, error) {
	in := &inputs{verdict: map[string]uint64{}}
	gen := func(g int) *ext.Extension {
		e := cluster.GenerationExt(ext.KindEBPF, g, genFiller)
		in.verdict[e.Digest()] = uint64(100 + g)
		in.exts = append(in.exts, e)
		return e
	}
	// Each client owns the tenants congruent to it: disjoint, and spanning
	// every shard because the plan interleaves shard ownership.
	mine := make([][]int, clients)
	for i := range p.tenants {
		mine[i%clients] = append(mine[i%clients], i)
	}
	for c := range mine {
		shards := map[int]bool{}
		for _, t := range mine[c] {
			shards[p.owner[t]] = true
		}
		if len(shards) != len(p.fleet) {
			return nil, fmt.Errorf("client %d's tenants reach %d of %d shards", c, len(shards), len(p.fleet))
		}
	}
	job := func(tenant int, e *ext.Extension) *shard.Job {
		return &shard.Job{Tenant: p.tenants[tenant], Hook: hookName, Ext: e,
			Nodes: []string{p.nodes[tenant]}, Bytes: jobBytes}
	}

	switch workload {
	case "flip", "failover":
		// Each op republishes the generation its tenant's node is NOT
		// running; set-up leaves every node on gens[0].
		gens := []*ext.Extension{gen(1), gen(2)}
		for c := 0; c < clients; c++ {
			order := rand.New(rand.NewSource(seed<<8 + int64(c))).Perm(len(mine[c]))
			live := make([]int, len(p.tenants))
			pos, own := 0, mine[c]
			in.next = append(in.next, func() *shard.Job {
				t := own[order[pos%len(order)]]
				pos++
				live[t] ^= 1
				return job(t, gens[live[t]])
			})
		}

	case "cold":
		bases, err := coldBases(seed)
		if err != nil {
			return nil, err
		}
		var sites [][]int
		for _, b := range bases {
			s := patchSites(b)
			if len(s) == 0 {
				return nil, fmt.Errorf("cold: base %s has no patchable immediate", b.Name)
			}
			sites = append(sites, s)
		}
		for c := 0; c < clients; c++ {
			rng := rand.New(rand.NewSource(seed<<8 + int64(c)))
			order := rng.Perm(len(mine[c]))
			visits := make([]int, len(p.tenants))
			pos, own := 0, mine[c]
			in.next = append(in.next, func() *shard.Job {
				t := own[order[pos%len(order)]]
				// A different base on every visit to a hook, and an immediate
				// no other op of the run uses: a digest nobody has seen.
				k := (visits[t] + t) % len(bases)
				visits[t]++
				prog := bases[k].Clone()
				prog.Insns[sites[k][rng.Intn(len(sites[k]))]].Imm = int32(1<<20 + pos*clients + c)
				pos++
				e := ext.FromEBPF(prog)
				prog.Meta.Tag = e.Digest()[:16]
				return job(t, e)
			})
		}

	case "rollout":
		for g := 1; g <= sz.pool; g++ {
			gen(g)
		}
		pool := in.exts
		for c := 0; c < clients; c++ {
			order := rand.New(rand.NewSource(seed<<8 + int64(c))).Perm(len(pool))
			pos := 0
			in.next = append(in.next, func() *shard.Job {
				// Client c drives shard c; one client alone alternates.
				s := (c + pos*clients) % len(p.fleet)
				e := pool[order[pos%len(order)]]
				pos++
				return &shard.Job{Tenant: p.fleet[s], Hook: hookName, Ext: e, Bytes: jobBytes}
			})
		}

	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return in, nil
}

// coldBases generates cold's unpatched programs for a seed.
func coldBases(seed int64) ([]*ebpf.Program, error) {
	var bases []*ebpf.Program
	for k, size := range coldSizes {
		b, err := progen.Generate(progen.Options{Size: size, Seed: seed<<8 + int64(k), WithHelpers: true})
		if err != nil {
			return nil, err
		}
		bases = append(bases, b)
	}
	return bases, nil
}

// patchSites lists the instructions of a progen program whose immediate can
// take any value without changing what the verifier has to prove: scalar
// add/sub/xor on the accumulator registers.
func patchSites(p *ebpf.Program) []int {
	var out []int
	for i := 0; i < len(p.Insns); i++ {
		ins := p.Insns[i]
		if ins.IsLDDW() {
			i++
			continue
		}
		if ins.Class() != ebpf.ClassALU64 || ins.UsesX() || ins.Dst < ebpf.R7 || ins.Dst > ebpf.R9 {
			continue
		}
		switch ins.AluOp() {
		case ebpf.AluAdd, ebpf.AluSub, ebpf.AluXor:
			out = append(out, i)
		}
	}
	return out
}

// inputsSHA256 hashes the first n (tenant, digest) pairs a seed generates,
// clients taken round-robin: the same seed must reproduce it, another seed
// must not.
func inputsSHA256(workload string, seed int64, sz sizes, p plan, clients, n int) (string, error) {
	in, err := newInputs(workload, seed, sz, p, clients)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for i := 0; i < n; i++ {
		j := in.next[i%clients]()
		fmt.Fprintf(h, "%s\x00%s\n", j.Tenant, j.Ext.Digest())
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Package ext unifies the three runtime-extension frontends — eBPF
// programs, Wasm filters, and UDFs — behind one interface so the control
// plane, the agent baseline, and the CodeFlow pipeline stay
// frontend-agnostic: validate → JIT-compile → link → deploy works
// identically for all three (the generality argument of the paper's §6).
package ext

import (
	"fmt"
	"sync"

	"rdx/internal/ebpf"
	"rdx/internal/ebpf/jit"
	"rdx/internal/ebpf/verifier"
	"rdx/internal/native"
	"rdx/internal/udf"
	"rdx/internal/wasm"
)

// Kind discriminates extension frontends. Values match the node blob-header
// kind bytes (node.KindEBPF etc.).
type Kind uint8

const (
	KindEBPF Kind = 1
	KindWasm Kind = 2
	KindUDF  Kind = 3
)

func (k Kind) String() string {
	switch k {
	case KindEBPF:
		return "ebpf"
	case KindWasm:
		return "wasm"
	case KindUDF:
		return "udf"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Extension is one deployable runtime extension of any kind.
type Extension struct {
	Kind Kind
	EBPF *ebpf.Program
	Wasm *wasm.Module
	UDF  *udf.Program

	digestOnce sync.Once
	digest     string
}

// FromEBPF wraps an eBPF program.
func FromEBPF(p *ebpf.Program) *Extension { return &Extension{Kind: KindEBPF, EBPF: p} }

// FromWasm wraps a Wasm filter module.
func FromWasm(m *wasm.Module) *Extension { return &Extension{Kind: KindWasm, Wasm: m} }

// FromUDF wraps a UDF program.
func FromUDF(p *udf.Program) *Extension { return &Extension{Kind: KindUDF, UDF: p} }

// Name returns the extension's name.
func (e *Extension) Name() string {
	switch e.Kind {
	case KindEBPF:
		return e.EBPF.Name
	case KindWasm:
		return e.Wasm.Name
	case KindUDF:
		return e.UDF.Name
	}
	return ""
}

// Digest is the content digest used as the compile-cache key. It is
// computed once and memoized: extensions are immutable after construction,
// and the hot deploy path consults the digest repeatedly.
func (e *Extension) Digest() string {
	e.digestOnce.Do(func() {
		switch e.Kind {
		case KindEBPF:
			e.digest = e.EBPF.Digest()
		case KindWasm:
			e.digest = wasm.Digest(e.Wasm)
		case KindUDF:
			e.digest = e.UDF.Digest()
		}
	})
	return e.digest
}

// Info summarizes validation facts across frontends.
type Info struct {
	Ops        int // instructions / body ops / AST-irrelevant for UDF (0)
	StackDepth int
	UsesState  bool
}

// Validate runs the frontend's validator/verifier.
func (e *Extension) Validate() (Info, error) {
	switch e.Kind {
	case KindEBPF:
		res, err := verifier.Verify(e.EBPF, verifier.Config{})
		if err != nil {
			return Info{}, err
		}
		return Info{Ops: res.Insns, StackDepth: res.StackDepth, UsesState: res.UsesMapLookup || res.UsesMapUpdate}, nil
	case KindWasm:
		res, err := wasm.Validate(e.Wasm)
		if err != nil {
			return Info{}, err
		}
		return Info{Ops: res.BodyOps, StackDepth: (res.Locals + res.MaxStack) * 8, UsesState: res.UsesMemory}, nil
	case KindUDF:
		// Parsing already type-checks; re-parse defensively if the
		// expression is absent.
		if e.UDF == nil || e.UDF.Expr == nil {
			return Info{}, fmt.Errorf("ext: empty UDF")
		}
		return Info{}, nil
	}
	return Info{}, fmt.Errorf("ext: unknown kind %v", e.Kind)
}

// Compile JIT-compiles for the target architecture, producing a relocatable
// binary with the frontend's relocation symbols.
func (e *Extension) Compile(arch native.Arch) (*native.Binary, error) {
	switch e.Kind {
	case KindEBPF:
		return jit.CompileWithDigest(e.EBPF, e.Digest(), arch)
	case KindWasm:
		return wasm.Compile(e.Wasm, arch)
	case KindUDF:
		return e.UDF.Compile(arch)
	}
	return nil, fmt.Errorf("ext: unknown kind %v", e.Kind)
}

// MapSpecs returns the XState maps the extension requires (eBPF only).
func (e *Extension) MapSpecs() []ebpf.MapSpec {
	if e.Kind == KindEBPF {
		return e.EBPF.Maps
	}
	return nil
}

// WasmRegions returns the (memory bytes, globals) a Wasm filter deployment
// must allocate, or zeros for other kinds.
func (e *Extension) WasmRegions() (memBytes, globals int) {
	if e.Kind != KindWasm {
		return 0, 0
	}
	return int(e.Wasm.MemPages) * wasm.PageSize, len(e.Wasm.Globals)
}

// WasmGlobalInits returns the global initial values for a Wasm deployment.
func (e *Extension) WasmGlobalInits() []int64 {
	if e.Kind != KindWasm {
		return nil
	}
	out := make([]int64, len(e.Wasm.Globals))
	for i, g := range e.Wasm.Globals {
		out[i] = g.Init
	}
	return out
}

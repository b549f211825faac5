package ext

import (
	"strings"
	"testing"

	"rdx/internal/ebpf"
	"rdx/internal/native"
	"rdx/internal/udf"
	"rdx/internal/wasm"
	"rdx/internal/xabi"
)

func sampleEBPF() *Extension {
	return FromEBPF(ebpf.NewProgram("e", ebpf.ProgTypeSocketFilter, []ebpf.Instruction{
		ebpf.Mov64Imm(ebpf.R0, 1), ebpf.Exit(),
	}, ebpf.MapSpec{Name: "m", Type: xabi.MapTypeHash, KeySize: 4, ValueSize: 8, MaxEntries: 4}))
}

func sampleWasm() *Extension {
	m := wasm.SimpleFilter("w", 2, nil, wasm.NewBody().I64Const(1).End().Bytes())
	m.Globals = []wasm.Global{{Type: wasm.I64, Init: 5}}
	return FromWasm(m)
}

func sampleUDF(t *testing.T) *Extension {
	t.Helper()
	p, err := udf.New("u", "len > 10")
	if err != nil {
		t.Fatal(err)
	}
	return FromUDF(p)
}

func TestKindDispatch(t *testing.T) {
	cases := []struct {
		e    *Extension
		kind Kind
		name string
	}{
		{sampleEBPF(), KindEBPF, "e"},
		{sampleWasm(), KindWasm, "w"},
	}
	for _, c := range cases {
		if c.e.Kind != c.kind || c.e.Name() != c.name {
			t.Errorf("kind=%v name=%q", c.e.Kind, c.e.Name())
		}
		if c.e.Digest() == "" {
			t.Errorf("%v: empty digest", c.kind)
		}
		if _, err := c.e.Validate(); err != nil {
			t.Errorf("%v: validate: %v", c.kind, err)
		}
		for _, arch := range []native.Arch{native.ArchX64, native.ArchA64} {
			bin, err := c.e.Compile(arch)
			if err != nil {
				t.Errorf("%v/%v: compile: %v", c.kind, arch, err)
				continue
			}
			if bin.Arch != arch {
				t.Errorf("%v: binary arch %v", c.kind, bin.Arch)
			}
			if bin.SourceDigest != c.e.Digest() {
				t.Errorf("%v: binary stamped with digest %q, extension's is %q", c.kind, bin.SourceDigest, c.e.Digest())
			}
		}
	}
}

func TestUDFExtension(t *testing.T) {
	e := sampleUDF(t)
	if e.Kind != KindUDF || e.Name() != "u" {
		t.Fatalf("kind=%v name=%q", e.Kind, e.Name())
	}
	if _, err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Compile(native.ArchX64); err != nil {
		t.Fatal(err)
	}
}

func TestMapSpecsOnlyForEBPF(t *testing.T) {
	if len(sampleEBPF().MapSpecs()) != 1 {
		t.Error("ebpf map specs missing")
	}
	if len(sampleWasm().MapSpecs()) != 0 {
		t.Error("wasm reported map specs")
	}
}

func TestWasmRegions(t *testing.T) {
	memBytes, globals := sampleWasm().WasmRegions()
	if memBytes != 2*wasm.PageSize || globals != 1 {
		t.Errorf("regions = %d, %d", memBytes, globals)
	}
	inits := sampleWasm().WasmGlobalInits()
	if len(inits) != 1 || inits[0] != 5 {
		t.Errorf("inits = %v", inits)
	}
	if mb, g := sampleEBPF().WasmRegions(); mb != 0 || g != 0 {
		t.Error("ebpf reported wasm regions")
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	bad := FromEBPF(ebpf.NewProgram("b", ebpf.ProgTypeSocketFilter, []ebpf.Instruction{ebpf.Ja(-1)}))
	if _, err := bad.Validate(); err == nil {
		t.Error("looping eBPF validated")
	}
	badWasm := FromWasm(wasm.SimpleFilter("b", 0, nil, wasm.NewBody().I32Const(1).End().Bytes()))
	if _, err := badWasm.Validate(); err == nil {
		t.Error("type-broken wasm validated")
	}
	empty := &Extension{Kind: KindUDF}
	if _, err := empty.Validate(); err == nil {
		t.Error("empty UDF validated")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindEBPF: "ebpf", KindWasm: "wasm", KindUDF: "udf"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Error("unknown kind string")
	}
}

func TestValidateInfoFields(t *testing.T) {
	info, err := sampleEBPF().Validate()
	if err != nil {
		t.Fatal(err)
	}
	if info.Ops != 2 {
		t.Errorf("ops = %d", info.Ops)
	}
	winfo, err := sampleWasm().Validate()
	if err != nil {
		t.Fatal(err)
	}
	if winfo.Ops == 0 {
		t.Error("wasm ops not counted")
	}
}

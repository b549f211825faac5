package experiments

import "testing"

func TestFig2aQuick(t *testing.T) {
	tbl, err := Fig2a(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	t.Logf("\n%s", tbl)
}

func TestFig4aQuick(t *testing.T) {
	rows, err := Fig4aData(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Speedup < 2 {
			t.Errorf("size %d: speedup only %.1fx; RDX should beat agent by a wide margin", r.Size, r.Speedup)
		}
	}
	tbl, _ := Fig4a(Options{Quick: true})
	t.Logf("\n%s", tbl)
}

func TestFig4bQuick(t *testing.T) {
	tbl, err := Fig4b(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
}

func TestFig5Quick(t *testing.T) {
	points, err := Fig5Data(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.RDX >= p.Vanilla {
			t.Errorf("CPKI %v: RDX %v not faster than vanilla %v", p.CPKI, p.RDX, p.Vanilla)
		}
	}
	tbl, _ := Fig5(Options{Quick: true})
	t.Logf("\n%s", tbl)
}

func TestFig2bQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	tbl, err := Fig2b(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
}

func TestFig2cQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	tbl, err := Fig2c(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
}

func TestRedisQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	tbl, err := Redis(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
}

func TestMeshQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	tbl, err := Mesh(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
}

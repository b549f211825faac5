package artifact

import (
	"bytes"
	"testing"
)

// applyDelta replays a delta's runs over a copy of the old image resized to
// the new length — the byte-level model of what the scatter WRITEs do to
// the remote blob. Bytes of old beyond NewLen are dropped, mirroring the
// header's code-length field bounding what the node reads.
func applyDelta(old []byte, d Delta) []byte {
	out := make([]byte, d.NewLen)
	copy(out, old)
	for _, run := range d.Runs {
		copy(out[run.Off:], run.Data)
	}
	return out
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

func TestComputeTable(t *testing.T) {
	const page = 64
	base := pattern(10*page, 1)

	singleByte := append([]byte(nil), base...)
	singleByte[3*page+5] ^= 0xff

	straddle := append([]byte(nil), base...)
	for i := 4*page - 8; i < 4*page+8; i++ {
		straddle[i] ^= 0xa5 // dirties the last bytes of page 3 and first of page 4
	}

	grown := append(append([]byte(nil), base...), pattern(3*page, 9)...)
	shrunk := append([]byte(nil), base[:6*page+page/2]...)

	scattered := append([]byte(nil), base...)
	for _, p := range []int{0, 2, 5, 9} {
		scattered[p*page] ^= 0x1 // four non-adjacent dirty pages
	}

	cases := []struct {
		name      string
		old, new  []byte
		wantRuns  int
		wantBytes int
	}{
		{"identical", base, append([]byte(nil), base...), 0, 0},
		{"single byte", base, singleByte, 1, page},
		{"straddles page boundary", base, straddle, 1, 2 * page},
		{"size growing", base, grown, 1, 3 * page},
		// Shrinking dirties nothing by itself: every surviving page
		// matches, and the dropped tail needs no writes because the new
		// (shorter) code length bounds what the node reads.
		{"size shrinking", base, shrunk, 0, 0},
		{"scattered pages stay separate runs", base, scattered, 4, 4 * page},
		{"from nil base (torn slot)", nil, base, 1, len(base)},
		{"to empty", base, nil, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := Compute(tc.old, tc.new, page)
			if len(d.Runs) != tc.wantRuns {
				t.Fatalf("runs = %d, want %d (%+v)", len(d.Runs), tc.wantRuns, d.Runs)
			}
			if d.Bytes() != tc.wantBytes {
				t.Fatalf("bytes = %d, want %d", d.Bytes(), tc.wantBytes)
			}
			if got := applyDelta(tc.old, d); !bytes.Equal(got, tc.new) {
				t.Fatalf("replaying the delta does not reproduce the new image")
			}
		})
	}
}

func TestComputeAdjacentPagesCoalesce(t *testing.T) {
	const page = 32
	old := pattern(8*page, 1)
	new := append([]byte(nil), old...)
	for i := 2 * page; i < 5*page; i++ {
		new[i] ^= 0x3c
	}
	d := Compute(old, new, page)
	if len(d.Runs) != 1 {
		t.Fatalf("3 adjacent dirty pages produced %d runs, want 1", len(d.Runs))
	}
	if d.Runs[0].Off != 2*page || len(d.Runs[0].Data) != 3*page {
		t.Fatalf("run = off %d len %d, want off %d len %d",
			d.Runs[0].Off, len(d.Runs[0].Data), 2*page, 3*page)
	}
}

func TestComputeRatioThreshold(t *testing.T) {
	const page = 64
	old := pattern(10*page, 1)

	small := append([]byte(nil), old...)
	small[0] ^= 1
	d := Compute(old, small, page)
	if r := d.Ratio(); r > 0.5 {
		t.Fatalf("one dirty page of ten ratios to %v, should be under the 0.5 fallback threshold", r)
	}

	big := append([]byte(nil), old...)
	for p := 0; p < 8; p++ {
		big[p*page] ^= 1
	}
	d = Compute(old, big, page)
	if r := d.Ratio(); r <= 0.5 {
		t.Fatalf("eight dirty pages of ten ratios to %v, should exceed the 0.5 fallback threshold", r)
	}

	// A torn slot (nil base) must always ratio to 1: full fallback.
	d = Compute(nil, old, page)
	if d.Ratio() != 1 {
		t.Fatalf("nil base ratio = %v, want 1", d.Ratio())
	}
}

func TestComputeShortFinalPage(t *testing.T) {
	const page = 64
	old := pattern(3*page+17, 1)
	new := append([]byte(nil), old...)
	new[len(new)-1] ^= 0xff // dirty byte inside the short tail page
	d := Compute(old, new, page)
	if len(d.Runs) != 1 || d.Bytes() != 17 {
		t.Fatalf("short tail page: runs=%d bytes=%d, want 1 run of 17 bytes", len(d.Runs), d.Bytes())
	}
	if got := applyDelta(old, d); !bytes.Equal(got, new) {
		t.Fatal("replay mismatch on short final page")
	}
}

package ebpf_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"rdx/internal/ebpf"
	"rdx/internal/ebpf/progen"
)

// TestDigestMatchesMaterialisedEncoding pins Program.Digest to its
// definition, sha256(Encode(insns) ‖ type ‖ map shapes): the digest keys the
// artifact cache and is journaled, so however the bytecode reaches the hash,
// the hex string must not change. The sizes straddle Digest's internal
// buffer both evenly and with a remainder.
func TestDigestMatchesMaterialisedEncoding(t *testing.T) {
	for _, size := range []int{600, 1300, 2600, 64, 65, 16} {
		for _, withMap := range []bool{false, true} {
			p := progen.MustGenerate(progen.Options{Size: size, Seed: int64(size), WithMap: withMap, WithHelpers: true})

			h := sha256.New()
			h.Write(ebpf.Encode(p.Insns))
			var tb [4]byte
			binary.LittleEndian.PutUint32(tb[:], uint32(p.Type))
			h.Write(tb[:])
			for _, m := range p.Maps {
				fmt.Fprintf(h, "|%s:%d:%d:%d:%d", m.Name, m.Type, m.KeySize, m.ValueSize, m.MaxEntries)
			}
			want := hex.EncodeToString(h.Sum(nil))

			if got := p.Digest(); got != want {
				t.Errorf("size %d map=%t: Digest() = %s, want %s", size, withMap, got, want)
			}
		}
	}
}

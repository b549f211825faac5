package artifact

import "bytes"

// DefaultPageSize is the delta granularity: small enough that a one-line
// patch to a JIT'd binary dirties one or two pages, large enough that the
// per-run OpBatch framing overhead (13B header + data length) stays noise.
const DefaultPageSize = 256

// Run is one contiguous span of changed bytes in the new image. Data
// aliases the new image; callers must not mutate it.
type Run struct {
	Off  int
	Data []byte
}

// Delta is a page-granular difference between a deployed image and its
// replacement. Adjacent changed pages coalesce into single runs so a
// clustered patch becomes one scatter-WRITE entry, not a page-per-entry
// chain.
type Delta struct {
	Runs     []Run
	OldLen   int
	NewLen   int
	PageSize int
	changed  int
}

// Compute diffs old → new at page granularity. A page of the new image is
// dirty when it extends past the old image or its bytes differ. Bytes of
// the OLD image past the new length need no writes: the image header (page
// 0, which carries the code length and always changes across versions)
// bounds what the node reads, so stale tail bytes are unreachable.
func Compute(old, new []byte, pageSize int) Delta {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	d := Delta{OldLen: len(old), NewLen: len(new), PageSize: pageSize}
	for off := 0; off < len(new); off += pageSize {
		end := off + pageSize
		if end > len(new) {
			end = len(new)
		}
		dirty := end > len(old) || !bytes.Equal(old[off:end], new[off:end])
		if !dirty {
			continue
		}
		d.changed += end - off
		if n := len(d.Runs); n > 0 && d.Runs[n-1].Off+len(d.Runs[n-1].Data) == off {
			d.Runs[n-1].Data = new[d.Runs[n-1].Off:end]
		} else {
			d.Runs = append(d.Runs, Run{Off: off, Data: new[off:end]})
		}
	}
	return d
}

// Bytes is the total payload a delta injection writes.
func (d *Delta) Bytes() int { return d.changed }

// Ratio is delta bytes over full-image bytes: the quantity compared against
// the fallback-to-full threshold. An empty new image ratios to 0.
func (d *Delta) Ratio() float64 {
	if d.NewLen == 0 {
		return 0
	}
	return float64(d.changed) / float64(d.NewLen)
}

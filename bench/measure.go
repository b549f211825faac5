package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"rdx/internal/telemetry"
)

// window is one measured interval of closed-loop load.
type window struct {
	attempted, failed int
	lat               []int64 // acked ops' latencies in ns, ascending
	elapsed           time.Duration
	errs              []error // the first few op errors
	sampleCap         int     // latency samples preallocated for the window
	proc0, proc1      procStats
	reg0, reg1        map[string]uint64 // registry counters before and after
}

func (w *window) acked() int { return len(w.lat) }

// procStats is the process-wide accounting read at both ends of a window.
type procStats struct {
	live       uint64 // heap bytes live after two GCs
	mallocs    uint64
	allocBytes uint64
	cpu        time.Duration // user+system
	gcCPU      float64       // seconds
	totalCPU   float64       // seconds, as the runtime accounts it
	maxRSSKB   int64
}

// collect runs two collections — the first may only finish sweeping what the
// previous cycle marked — and reads the heap: HeapAlloc is then what is live.
func collect() runtime.MemStats {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func readProc() procStats {
	m := collect()
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return procStats{
		live: m.HeapAlloc, mallocs: m.Mallocs, allocBytes: m.TotalAlloc,
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
		maxRSSKB: ru.Maxrss,
	}
}

// measure drives every client in a closed loop for d: a client builds its
// next job (untimed), publishes it, and waits for the ack. With traced set
// the decorators record spans for the duration.
func (rn *run) measure(d time.Duration, traced bool) *window {
	tr := rn.rig.tr
	type clientOut struct {
		lat       []int64
		attempted int
		failed    int
		errs      []error
		end       time.Time
	}
	outs := make([]clientOut, rn.clients)
	for c := range outs {
		outs[c].lat = make([]int64, 0, int(d.Seconds()*40000)+1024)
	}
	w := &window{reg0: rn.rig.reg.Snapshot().Counters, sampleCap: rn.clients * cap(outs[0].lat)}
	w.proc0 = readProc()
	if traced {
		tr.on.Store(true)
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < rn.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := &outs[c]
			// One trace record per op, from a slab allocated up front.
			var recs []opRec
			if traced {
				recs = make([]opRec, cap(out.lat))
			}
			for time.Now().Before(deadline) {
				j := rn.in.next[c]()
				var rec *opRec
				if traced {
					if out.attempted < len(recs) {
						rec = &recs[out.attempted]
					} else {
						rec = &opRec{}
					}
					tr.begin(c, rec, j)
				}
				t0 := time.Now()
				err := rn.do(j, rec)
				t1 := time.Now()
				if traced {
					tr.end(c, rec, int64(t0.Sub(tr.epoch)), int64(t1.Sub(tr.epoch)))
				}
				out.attempted++
				if err == nil && rn.after != nil {
					err = rn.after(j)
				}
				if err != nil {
					out.failed++
					if len(out.errs) < 4 {
						out.errs = append(out.errs, err)
					}
					continue
				}
				out.lat = append(out.lat, int64(t1.Sub(t0)))
				rn.last[c][j.Tenant] = j
			}
			out.end = time.Now()
		}()
	}
	wg.Wait()
	if traced {
		tr.on.Store(false)
	}
	w.proc1 = readProc()
	w.reg1 = rn.rig.reg.Snapshot().Counters
	for _, out := range outs {
		w.attempted += out.attempted
		w.failed += out.failed
		w.errs = append(w.errs, out.errs...)
		w.lat = append(w.lat, out.lat...)
		if e := out.end.Sub(start); e > w.elapsed {
			w.elapsed = e
		}
	}
	sort.Slice(w.lat, func(a, b int) bool { return w.lat[a] < w.lat[b] })
	return w
}

// retainedPerOp is how much the live heap has grown since the rig was
// built, per op acked since (set-up's included), without the benchmark's own
// sample buffers. The base is the empty rig and not the window's start
// because what the program retains sits in append-grown buffers, and a
// buffer's capacity is anywhere between 1 and 1.25 times its length: measured
// over a window that adds a fifth to a buffer, one reallocation more or less
// would double the figure.
func (rn *run) retainedPerOp(w *window) float64 {
	grown := float64(w.proc1.live) - float64(rn.live0) - float64(8*w.sampleCap)
	return grown / float64(rn.setupOps+w.acked())
}

// opsPerSec is acked ops over the window; on failover, over the time the
// shard was actually out (the sum of the outage intervals).
func (rn *run) opsPerSec(w *window) float64 {
	if rn.workload == "failover" {
		var out int64
		for _, l := range w.lat {
			out += l
		}
		return float64(w.acked()) / (float64(out) / 1e9)
	}
	return float64(w.acked()) / w.elapsed.Seconds()
}

// delta is how far a registry counter moved over the window.
func (w *window) delta(name string) float64 { return float64(w.reg1[name] - w.reg0[name]) }

// deltaSum sums delta over every counter whose name has one of the prefixes
// and contains part.
func (w *window) deltaSum(part string, prefixes ...string) float64 {
	var sum float64
	for name := range w.reg1 {
		if !strings.Contains(name, part) {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				sum += w.delta(name)
				break
			}
		}
	}
	return sum
}

// nodeVerbs and standbyVerbs count completed verbs per link class from the
// wire metrics, which exist on traced and untraced runs alike.
func (w *window) nodeVerbs() float64 {
	return w.deltaSum(".verbs.", "rdma.qp.shard", "rdma.qp.succ")
}
func (w *window) standbyVerbs() float64 { return w.deltaSum(".verbs.", "rdma.qp.stby") }

// quantile is the exact order statistic: the smallest sample with at least
// a share p of the samples at or below it. sorted must be ascending.
func quantile[T int64 | float64](sorted []T, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)])
}

func median(v []float64) float64 {
	sort.Float64s(v)
	return quantile(v, 0.5)
}

// meanUS is the mean, in µs, of what a registry histogram has recorded since
// resetHistograms cleared it at the start of the traced window.
func meanUS(h *telemetry.Histogram) float64 { return h.Mean() / 1e3 }

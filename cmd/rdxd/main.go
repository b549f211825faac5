// Command rdxd hosts an RDX data-plane node over real TCP: a software RNIC
// serving one-sided verbs against the node's arena, plus an optional KV
// application whose commands run on the node's simulated cores and flow
// through a hook.
//
// Usage:
//
//	rdxd -id node0 -listen :7700 [-kv :7701] [-hooks ingress,kv] [-cores 4] [-http :7702]
//
// A control plane (cmd/rdxctl or any rdx.ControlPlane user) connects to the
// -listen address, creates a CodeFlow, and manages extensions remotely; the
// node itself runs no control software after boot.
//
// With -http, the node exposes its observability surface:
//
//	GET /metrics        registry snapshot (per-opcode verb counts, bytes,
//	                    service-latency percentiles) as JSON
//	GET /trace[?id=N]   buffered endpoint trace spans (all, or one trace ID)
//
// With -standby, rdxd serves a control-plane HA host instead of a data
// plane: an arena exposing the leader-election witness MR and the journal
// replication ring MR (see internal/controlha). Leaders attach with
// rdxctl failover / controlha.AttachLeader; the standby itself runs no
// election logic — leadership is decided by CAS in its own memory.
// -standby -shards N serves N independent hosts on consecutive ports from
// -listen, one witness+ring per control-plane shard (see internal/shard).
// -http also works in standby mode: /metrics replays each shard's pumped
// journal copy and reports per-shard gauges — journal bytes/entries/seq,
// deployments, open intents, and rebalance handoff markers.
//
// On SIGINT/SIGTERM rdxd shuts down gracefully: it stops accepting QPs,
// drains in-flight endpoint frames (bounded by -drain), flushes a final
// telemetry snapshot to stderr, and exits.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rdx/internal/controlha"
	"rdx/internal/kvstore"
	"rdx/internal/native"
	"rdx/internal/node"
	"rdx/internal/rdma"
	"rdx/internal/shard"
	"rdx/internal/telemetry"
)

func main() {
	var (
		id       = flag.String("id", "node0", "node identifier")
		listen   = flag.String("listen", ":7700", "RNIC listen address (TCP)")
		kvAddr   = flag.String("kv", "", "optional KV application listen address")
		hooks    = flag.String("hooks", "ingress,kv", "comma-separated hook names")
		cores    = flag.Int("cores", 4, "simulated CPU cores")
		arch     = flag.String("arch", "x64", "native architecture (x64|a64)")
		kvHook   = flag.String("kv-hook", "kv", "hook the KV app routes commands through ('' disables)")
		httpAddr = flag.String("http", "", "optional observability listen address (/metrics, /trace)")
		standby  = flag.Bool("standby", false, "serve a control-plane HA host (witness + journal ring) instead of a node")
		shards   = flag.Int("shards", 1, "with -standby: serve N shard hosts on consecutive ports from -listen")
		ringCap  = flag.Uint64("ring-cap", 0, "standby journal ring capacity in bytes (0 = default)")
		drain    = flag.Duration("drain", 2*time.Second, "shutdown grace for in-flight endpoint frames")
	)
	flag.Parse()

	if *standby {
		runStandby(*id, *listen, *shards, *ringCap, *httpAddr, *drain)
		return
	}

	targetArch, err := native.ParseArch(*arch)
	if err != nil {
		log.Fatalf("rdxd: %v", err)
	}
	n, err := node.New(node.Config{
		ID:      *id,
		Arch:    targetArch,
		Cores:   *cores,
		Hooks:   strings.Split(*hooks, ","),
		Latency: rdma.DefaultLatency(),
	})
	if err != nil {
		log.Fatalf("rdxd: %v", err)
	}

	// Instrument the RNIC whether or not -http is set: the registry is cheap
	// and a later scrape should not miss verbs served before it started.
	reg := telemetry.NewRegistry()
	rdma.BindWireInstruments(reg)
	tracer := telemetry.NewTraceRecorder(0)
	n.RNIC.SetInstruments(rdma.NewWireMetrics(reg, "endpoint"), tracer, *id)

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("rdxd: %v", err)
	}
	log.Printf("rdxd: node %s (%s, %d cores) serving RNIC on %s, hooks %s",
		*id, targetArch, *cores, l.Addr(), *hooks)
	go func() {
		if err := n.Serve(l); err != nil {
			log.Printf("rdxd: RNIC serve: %v", err)
		}
	}()

	if *kvAddr != "" {
		kvl, err := net.Listen("tcp", *kvAddr)
		if err != nil {
			log.Fatalf("rdxd: kv listen: %v", err)
		}
		srv := kvstore.NewServer(n, *kvHook)
		log.Printf("rdxd: KV application on %s (hook %q)", kvl.Addr(), *kvHook)
		go func() {
			if err := srv.Serve(kvl); err != nil {
				log.Printf("rdxd: kv serve: %v", err)
			}
		}()
	}

	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			reg.WriteJSON(w)
		})
		mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
			var trace telemetry.TraceID
			if s := r.URL.Query().Get("id"); s != "" {
				v, err := strconv.ParseUint(s, 0, 64)
				if err != nil {
					http.Error(w, "bad trace id: "+err.Error(), http.StatusBadRequest)
					return
				}
				trace = telemetry.TraceID(v)
			}
			w.Header().Set("Content-Type", "application/json")
			tracer.WriteJSON(w, trace)
		})
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatalf("rdxd: http listen: %v", err)
		}
		log.Printf("rdxd: observability on http://%s (/metrics, /trace)", hl.Addr())
		go func() {
			if err := http.Serve(hl, mux); err != nil {
				log.Printf("rdxd: http serve: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	log.Printf("rdxd: %v: stopping accept, draining in-flight frames (grace %s)", s, *drain)
	l.Close()            // no new QPs
	n.RNIC.Drain(*drain) // in-flight verbs get their replies
	fmt.Fprintln(os.Stderr, "rdxd: final telemetry snapshot:")
	reg.WriteJSON(os.Stderr)
	fmt.Fprintln(os.Stderr)
	n.Close()
	log.Printf("rdxd: shutdown complete")
}

// runStandby serves controlha.Hosts: the witness and journal-ring MRs that
// back leader election and journal replication. With shards > 1 it serves
// one independent host per shard on consecutive ports starting at -listen
// — each shard's leader attaches to its own witness and ring, so shard
// elections and replication never share state. The process is purely
// passive memory — controllers mutate it with one-sided verbs.
func runStandby(id, listen string, shards int, ringCap uint64, httpAddr string, drain time.Duration) {
	if shards < 1 {
		shards = 1
	}
	addrs, err := shard.Addrs(listen, shards)
	if err != nil {
		log.Fatalf("rdxd: standby: %v", err)
	}
	hosts := make([]*controlha.Host, 0, shards)
	listeners := make([]net.Listener, 0, shards)
	for i, addr := range addrs {
		h, err := controlha.NewHostWith(ringCap, nil)
		if err != nil {
			log.Fatalf("rdxd: standby: %v", err)
		}
		l, err := net.Listen("tcp", addr)
		if err != nil {
			log.Fatalf("rdxd: %v", err)
		}
		log.Printf("rdxd: HA standby %s shard %d serving witness+ring (cap %d bytes) on %s",
			id, i, h.RingCap(), l.Addr())
		go func(h *controlha.Host, l net.Listener, i int) {
			if err := h.Serve(l); err != nil {
				log.Printf("rdxd: standby shard %d serve: %v", i, err)
			}
		}(h, l, i)
		// Pump the replication ring into the local journal copy so a
		// promotion never depends on the ring still holding the whole history.
		h.StartPump(0, log.Printf)
		hosts = append(hosts, h)
		listeners = append(listeners, l)
	}

	if httpAddr != "" {
		// Standby observability: each scrape pumps the rings and snapshots
		// per-shard gauges from the state each host folds as it pumps —
		// journal size and sequence, deployment count, and the rebalance
		// handoff markers (count + departing ring epoch). A scrape costs the
		// unpumped tail, not the history; the rings are only read, never grown.
		sreg := telemetry.NewRegistry()
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			for i, h := range hosts {
				pfx := fmt.Sprintf("standby.shard.%d.", i)
				sreg.Gauge(pfx + "ring.cap").Set(int64(h.RingCap()))
				if _, err := h.Pump(); err != nil {
					sreg.Gauge(pfx + "journal.unreadable").Set(1)
					continue
				}
				sreg.Gauge(pfx + "journal.bytes").Set(int64(h.Consumed()))
				st, err := h.State()
				if err != nil {
					sreg.Gauge(pfx + "journal.unreplayable").Set(1)
					continue
				}
				sreg.Gauge(pfx + "journal.entries").Set(int64(st.Entries))
				sreg.Gauge(pfx + "journal.last_seq").Set(int64(st.LastSeq))
				sreg.Gauge(pfx + "journal.fence").Set(int64(st.LastFence))
				sreg.Gauge(pfx + "deployments").Set(int64(len(st.Versions)))
				sreg.Gauge(pfx + "open_intents").Set(int64(len(st.Open)))
				sreg.Gauge(pfx + "handoffs").Set(int64(st.Handoffs))
				sreg.Gauge(pfx + "handoff.last_ring_epoch").Set(int64(st.LastHandoffEpoch))
			}
			w.Header().Set("Content-Type", "application/json")
			sreg.WriteJSON(w)
		})
		hl, err := net.Listen("tcp", httpAddr)
		if err != nil {
			log.Fatalf("rdxd: http listen: %v", err)
		}
		log.Printf("rdxd: standby observability on http://%s (/metrics)", hl.Addr())
		go func() {
			if err := http.Serve(hl, mux); err != nil {
				log.Printf("rdxd: http serve: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	var pumped uint64
	for _, h := range hosts {
		pumped += h.Consumed()
	}
	log.Printf("rdxd: %v: standby draining %d host(s) (grace %s, %d journal bytes pumped)",
		s, len(hosts), drain, pumped)
	for _, l := range listeners {
		l.Close()
	}
	for _, h := range hosts {
		h.Endpoint().Drain(drain)
		h.Close() // stops the pump too
	}
	log.Printf("rdxd: shutdown complete")
}

package rdma

import "rdx/internal/telemetry"

// opNames maps wire opcodes to the labels used in metric names and traces.
var opNames = [...]string{
	OpRead:         "read",
	OpWrite:        "write",
	OpCAS:          "cas",
	OpFetchAdd:     "fetch_add",
	OpWriteImm:     "write_imm",
	OpQueryMRs:     "query_mrs",
	OpBatch:        "batch",
	OpChainTrigger: "chain_trigger",
	OpRotateMR:     "rotate_mr",
}

// OpName returns the human label for a wire opcode ("read", "batch", ...).
func OpName(op uint8) string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return "unknown"
}

// WireMetrics is the verb-level accounting surface shared by initiator QPs
// and target endpoints: per-opcode verb counters, byte counters, and
// completion-latency histograms, all drawn from a telemetry.Registry by
// name. Because instruments are registry-owned, every QP built with the
// same metrics (including each generation behind a ReconnQP) feeds the SAME
// counters — counts accumulate across reconnects with no double-counting
// and no resets.
//
// Initiators use Verbs/Lat for posted-verb completions plus Timeouts,
// Reconnects, and Replays; endpoints use Verbs/Lat for served verbs plus
// Doorbells. BytesOut/BytesIn are frame payload bytes leaving/entering the
// component. A nil *WireMetrics is a valid no-op receiver on every record
// helper, so uninstrumented QPs pay one nil check.
type WireMetrics struct {
	verbs [len(opNames)]*telemetry.Counter
	errs  *telemetry.Counter
	lat   [len(opNames)]*telemetry.Histogram

	bytesOut   *telemetry.Counter
	bytesIn    *telemetry.Counter
	timeouts   *telemetry.Counter
	reconnects *telemetry.Counter
	replays    *telemetry.Counter
	doorbells  *telemetry.Counter
}

// NewWireMetrics binds a metrics set to registry instruments under prefix
// (conventionally "rdma.qp" for initiators, "rdma.ep" for endpoints):
//
//	<prefix>.verbs.<op>    counter  verbs completed/served, by opcode
//	<prefix>.lat.<op>      histogram  completion/service latency (ns)
//	<prefix>.errors        counter  verbs that completed with an error
//	<prefix>.bytes_out     counter  payload bytes sent
//	<prefix>.bytes_in      counter  payload bytes received
//	<prefix>.timeouts      counter  verbs abandoned on deadline
//	<prefix>.reconnects    counter  successful redials (ReconnQP)
//	<prefix>.replays       counter  verbs replayed on a fresh connection
//	<prefix>.doorbells     counter  WRITE_WITH_IMM handlers fired (endpoint)
func NewWireMetrics(reg *telemetry.Registry, prefix string) *WireMetrics {
	m := &WireMetrics{
		errs:       reg.Counter(prefix + ".errors"),
		bytesOut:   reg.Counter(prefix + ".bytes_out"),
		bytesIn:    reg.Counter(prefix + ".bytes_in"),
		timeouts:   reg.Counter(prefix + ".timeouts"),
		reconnects: reg.Counter(prefix + ".reconnects"),
		replays:    reg.Counter(prefix + ".replays"),
		doorbells:  reg.Counter(prefix + ".doorbells"),
	}
	for op, name := range opNames {
		if name == "" {
			continue
		}
		m.verbs[op] = reg.Counter(prefix + ".verbs." + name)
		m.lat[op] = reg.Histogram(prefix + ".lat." + name)
	}
	return m
}

// verbDone records one completed verb: count, latency, inbound payload, and
// the error tally.
func (m *WireMetrics) verbDone(op uint8, latNanos int64, bytesIn int, err error) {
	if m == nil {
		return
	}
	if int(op) >= len(opNames) || m.verbs[op] == nil {
		return
	}
	m.verbs[op].Inc()
	m.lat[op].Record(latNanos)
	if bytesIn > 0 {
		m.bytesIn.Add(uint64(bytesIn))
	}
	if err != nil {
		m.errs.Inc()
	}
}

// served records one verb executed by an endpoint: count, service time
// (latency-model charge + arena work), request payload in, response payload
// out, and the error tally.
func (m *WireMetrics) served(op uint8, latNanos int64, in, out int, err error) {
	if m == nil {
		return
	}
	if int(op) >= len(opNames) || m.verbs[op] == nil {
		return
	}
	m.verbs[op].Inc()
	m.lat[op].Record(latNanos)
	if in > 0 {
		m.bytesIn.Add(uint64(in))
	}
	if out > 0 {
		m.bytesOut.Add(uint64(out))
	}
	if err != nil {
		m.errs.Inc()
	}
}

func (m *WireMetrics) sent(bytes int) {
	if m != nil && bytes > 0 {
		m.bytesOut.Add(uint64(bytes))
	}
}

func (m *WireMetrics) timedOut() {
	if m != nil {
		m.timeouts.Inc()
	}
}

func (m *WireMetrics) reconnected() {
	if m != nil {
		m.reconnects.Inc()
	}
}

func (m *WireMetrics) replayed() {
	if m != nil {
		m.replays.Inc()
	}
}

func (m *WireMetrics) doorbellFired() {
	if m != nil {
		m.doorbells.Inc()
	}
}

// BindWireInstruments binds nothing: the endpoint serves one frame per read
// and the rdma package keeps no process-wide instruments. It stays only
// because the benchmark module still calls it, and is deleted with that call.
func BindWireInstruments(reg *telemetry.Registry) {}

package rdma

import (
	"bufio"
	"bytes"
	"net"
	"testing"
	"time"

	"rdx/internal/mem"
)

// fuzzOps is the canonicalization table: arbitrary fuzzed opcodes map onto
// the real opcode set so every iteration exercises a codec path.
var fuzzOps = []uint8{OpRead, OpWrite, OpCAS, OpFetchAdd, OpWriteImm, OpQueryMRs, OpBatch}

// FuzzWireRoundTrip checks the request/response codec: any request built
// from fuzzed fields must encode → decode back to the same semantics, and
// decodeRequest must never panic on raw fuzzed bytes.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint64(1), uint64(0), uint32(1), uint64(0x1000), uint64(8), uint64(0), uint32(0), []byte{})
	f.Add(uint8(2), uint64(7), uint64(42), uint32(3), uint64(0x20000), uint64(0), uint64(0), uint32(0), []byte("payload"))
	f.Add(uint8(3), uint64(9), uint64(0), uint32(1), uint64(0x40), uint64(5), uint64(6), uint32(0), []byte{})
	f.Add(uint8(5), uint64(11), uint64(3), uint32(2), uint64(0x1040), uint64(0), uint64(0), uint32(0xdead), []byte{1, 2, 3})
	f.Add(uint8(7), uint64(13), uint64(1), uint32(4), uint64(0x2000), uint64(0), uint64(0), uint32(9), []byte("abcdefghijklmnop"))
	f.Fuzz(func(t *testing.T, op uint8, id, trace uint64, rkey uint32, addr, a, b uint64, imm uint32, data []byte) {
		// Raw decode must be panic-free on arbitrary bytes.
		decodeRequest(data)

		q := request{op: fuzzOps[int(op)%len(fuzzOps)], id: id, trace: trace, rkey: rkey, addr: addr}
		switch q.op {
		case OpRead:
			q.len = uint32(a)
		case OpWrite:
			q.data = data
		case OpCAS:
			q.cmp, q.swap = a, b
		case OpFetchAdd:
			q.delta = a
		case OpWriteImm:
			q.imm, q.data = imm, data
		case OpQueryMRs:
			q.rkey, q.addr = 0, 0 // QueryMRs carries no body
		case OpBatch:
			q.rkey, q.addr = 0, 0
			// Split the fuzzed data into alternating WRITE / WRITE_IMM
			// sub-verbs so batches of every shape are exercised.
			for i := 0; i < 3 && len(data) > 0; i++ {
				cut := len(data) / 2
				sub := request{rkey: rkey + uint32(i), addr: addr + uint64(i)*64, data: data[:cut]}
				if i%2 == 1 {
					sub.op, sub.imm = OpWriteImm, imm
				} else {
					sub.op = OpWrite
				}
				q.subs = append(q.subs, sub)
				data = data[cut:]
			}
		}

		got, err := decodeRequest(q.encode())
		if err != nil {
			t.Fatalf("decode of encoded %#x request: %v", q.op, err)
		}
		if got.op != q.op || got.id != q.id || got.trace != q.trace {
			t.Fatalf("header mismatch: got (%#x,%d,%d), want (%#x,%d,%d)",
				got.op, got.id, got.trace, q.op, q.id, q.trace)
		}
		if q.op != OpQueryMRs && q.op != OpBatch {
			if got.rkey != q.rkey || got.addr != q.addr {
				t.Fatalf("rkey/addr mismatch: got (%d,%#x), want (%d,%#x)", got.rkey, got.addr, q.rkey, q.addr)
			}
		}
		if got.len != q.len || got.cmp != q.cmp || got.swap != q.swap ||
			got.delta != q.delta || got.imm != q.imm {
			t.Fatalf("body field mismatch: got %+v, want %+v", got, q)
		}
		if !bytes.Equal(got.data, q.data) {
			t.Fatalf("data mismatch: got %x, want %x", got.data, q.data)
		}
		if len(got.subs) != len(q.subs) {
			t.Fatalf("batch count: got %d, want %d", len(got.subs), len(q.subs))
		}
		for i := range q.subs {
			gs, ws := &got.subs[i], &q.subs[i]
			if gs.op != ws.op || gs.rkey != ws.rkey || gs.addr != ws.addr || gs.imm != ws.imm || !bytes.Equal(gs.data, ws.data) {
				t.Fatalf("batch sub %d mismatch: got %+v, want %+v", i, gs, ws)
			}
		}

		// Response leg: id/status/modeled/data survive the trip.
		r := response{id: id, status: uint8(a % 5), modeled: time.Duration(uint32(b)), data: data}
		gr, err := decodeResponse(r.encode())
		if err != nil {
			t.Fatalf("decode of encoded response: %v", err)
		}
		if gr.id != r.id || gr.status != r.status || gr.modeled != r.modeled || !bytes.Equal(gr.data, r.data) {
			t.Fatalf("response mismatch: got %+v, want %+v", gr, r)
		}
	})
}

// FuzzEndpointFrame throws arbitrary frames at a live endpoint. The
// invariants: the endpoint never panics; a decodable request gets exactly
// one well-formed response carrying the request's id and its modeled
// charge (none for the metadata ops, at least Base otherwise); a malformed frame
// tears the QP down (connection closed, serving goroutine exits) and never
// produces a reply.
func FuzzEndpointFrame(f *testing.F) {
	valid := request{op: OpRead, id: 3, rkey: 1, addr: 0, len: 8}
	f.Add(valid.encode())
	w := request{op: OpWrite, id: 4, rkey: 1, addr: 64, data: []byte("abcdefgh")}
	f.Add(w.encode())
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{OpCAS, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0})          // truncated CAS
	f.Add(append(valid.encode(), 0xee))                                           // trailing garbage
	f.Add([]byte{OpBatch, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 42}) // bad batch count
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		arena := mem.NewArena(1 << 16)
		lat := DefaultLatency()
		ep := NewEndpoint(arena, lat)
		ep.SetLogf(nil) // malformed frames log by design; keep fuzzing quiet
		if _, err := ep.RegisterMR("all", 0, 1<<16, PermAll); err != nil {
			t.Fatal(err)
		}
		cli, srv := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			ep.ServeConn(srv)
		}()
		cli.SetDeadline(time.Now().Add(10 * time.Second))

		wantID, wantResp, charged := uint64(0), false, false
		if q, err := decodeRequest(payload); err == nil {
			wantResp, wantID = true, q.id
			charged = q.op != OpQueryMRs && q.op != OpRotateMR
		}
		// The write itself may fail if the endpoint already tore down —
		// only possible for malformed input, where no reply is expected
		// anyway.
		werr := sendFrame(cli, payload)

		respFrame, rerr := readFrame(bufio.NewReader(cli), nil)
		if wantResp {
			if werr != nil {
				t.Fatalf("endpoint refused a valid request frame: %v", werr)
			}
			if rerr != nil {
				t.Fatalf("valid request %x got no reply: %v", payload, rerr)
			}
			r, err := decodeResponse(respFrame)
			if err != nil {
				t.Fatalf("endpoint replied garbage to %x: %v", payload, err)
			}
			if r.id != wantID {
				t.Fatalf("reply id %d for request id %d", r.id, wantID)
			}
			if charged && r.modeled < lat.Base || !charged && r.modeled != 0 {
				t.Fatalf("reply to %x charged %v (charged verb: %v)", payload, r.modeled, charged)
			}
		} else if rerr == nil {
			t.Fatalf("malformed frame %x drew a reply instead of a QP teardown", payload)
		}

		cli.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("endpoint goroutine still serving after teardown: QP not torn down")
		}
	})
}

package rdma

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// dialLink returns both ends of one fabric connection.
func dialLink(t *testing.T) (client, server net.Conn) {
	t.Helper()
	fab := NewFabric()
	l, err := fab.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	client, err = fab.Dial("peer")
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	return client, server
}

// start runs fn on its own goroutine; the channel closes when fn returns.
func start(fn func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	return done
}

// finishes fails the test if fn is still running after a generous bound: the
// way to assert that a call does not block.
func finishes(t *testing.T, what string, fn func()) {
	t.Helper()
	select {
	case <-start(fn):
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: still blocked after 5s", what)
	}
}

// parked starts fn and checks it has not returned after a short wait — a
// call expected to block until the test releases it. The returned channel
// closes when fn returns.
func parked(t *testing.T, what string, fn func()) <-chan struct{} {
	t.Helper()
	done := start(fn)
	select {
	case <-done:
		t.Fatalf("%s: returned, want it parked", what)
	case <-time.After(20 * time.Millisecond):
	}
	return done
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

// TestLinkWriteDoesNotRendezvous is the property the link exists for: a
// Write with no reader anywhere returns once the bytes are buffered.
func TestLinkWriteDoesNotRendezvous(t *testing.T) {
	client, server := dialLink(t)
	msg := pattern(300)
	finishes(t, "Write with no reader parked", func() {
		for i := 0; i < 8; i++ {
			if n, err := client.Write(msg); n != len(msg) || err != nil {
				t.Errorf("Write = %d, %v", n, err)
			}
		}
	})
	got := make([]byte, 8*len(msg))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat(msg, 8)) {
		t.Fatal("buffered writes arrived corrupted or reordered")
	}
}

func TestLinkWriterBlocksAtCapacity(t *testing.T) {
	client, server := dialLink(t)
	data := pattern(linkCap + 100)
	finishes(t, "filling the ring", func() { client.Write(data[:linkCap]) })
	var n int
	var err error
	done := parked(t, "Write into a full ring", func() { n, err = client.Write(data[linkCap:]) })
	got := make([]byte, len(data))
	if _, rerr := io.ReadFull(server, got); rerr != nil {
		t.Fatal(rerr)
	}
	<-done
	if n != 100 || err != nil {
		t.Fatalf("resumed Write = %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("bytes corrupted across the full-ring stall")
	}
}

// TestLinkStreamsLargeFrame pushes a frame several times the ring's size
// through odd-sized reads, so the ring wraps at every offset.
func TestLinkStreamsLargeFrame(t *testing.T) {
	client, server := dialLink(t)
	data := pattern(5*linkCap + 123)
	go func() {
		if n, err := client.Write(data); n != len(data) || err != nil {
			t.Errorf("Write = %d, %v", n, err)
		}
		client.Close()
	}()
	var got []byte
	buf := make([]byte, 1000)
	for {
		n, err := server.Read(buf[:1+len(got)%len(buf)])
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("streamed %d bytes, %d arrived or they differ", len(data), len(got))
	}
}

// TestLinkCloseUnblocks closes each end in turn under a parked reader and a
// parked writer: the closing end's own calls and the peer's Write fail
// io.ErrClosedPipe, the peer's Read io.EOF.
func TestLinkCloseUnblocks(t *testing.T) {
	for _, tc := range []struct {
		name             string
		closeClient      bool
		wantRead, wantWr error
	}{
		// The client reads and writes; either end closes.
		{"own end", true, io.ErrClosedPipe, io.ErrClosedPipe},
		{"peer end", false, io.EOF, io.ErrClosedPipe},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, server := dialLink(t)
			finishes(t, "filling the ring", func() { client.Write(make([]byte, linkCap)) })
			var rerr, werr error
			reader := parked(t, "Read of an empty ring", func() { _, rerr = client.Read(make([]byte, 8)) })
			writer := parked(t, "Write into a full ring", func() { _, werr = client.Write([]byte{1}) })
			if tc.closeClient {
				client.Close()
			} else {
				server.Close()
			}
			finishes(t, "parked calls after Close", func() { <-reader; <-writer })
			if rerr != tc.wantRead || werr != tc.wantWr {
				t.Fatalf("Read err %v, Write err %v; want %v, %v", rerr, werr, tc.wantRead, tc.wantWr)
			}
			for _, c := range []net.Conn{client, server} {
				if _, err := c.Write([]byte{1}); err != io.ErrClosedPipe || !isCleanTeardown(err) {
					t.Fatalf("Write after close: %v, want io.ErrClosedPipe", err)
				}
			}
		})
	}
}

func TestLinkDrainsBeforeEOF(t *testing.T) {
	client, server := dialLink(t)
	msg := pattern(700)
	client.Write(msg)
	client.Close()
	got, err := io.ReadAll(server)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("read %d bytes, %v; want the %d written before the close, then EOF", len(got), err, len(msg))
	}
}

func TestLinkReadDeadline(t *testing.T) {
	client, server := dialLink(t)
	buf := make([]byte, 8)
	client.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
	finishes(t, "Read past its deadline", func() {
		_, err := client.Read(buf)
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Errorf("Read past its deadline: %v, want a net.Error with Timeout()", err)
		}
	})
	// An expired deadline keeps failing reads until it is cleared.
	if _, err := client.Read(buf); err == nil {
		t.Fatal("Read after an expired deadline succeeded")
	}
	client.SetReadDeadline(time.Time{})
	var n int
	var err error
	done := parked(t, "Read with the deadline cleared", func() { n, err = client.Read(buf) })
	server.Write([]byte("ok"))
	<-done
	if err != nil || string(buf[:n]) != "ok" {
		t.Fatalf("Read after clearing the deadline = %q, %v", buf[:n], err)
	}
	// A deadline set under a reader that is already parked wakes it.
	done = parked(t, "Read of an empty ring", func() { _, err = client.Read(buf) })
	client.SetReadDeadline(time.Now())
	finishes(t, "parked Read after SetReadDeadline", func() { <-done })
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("parked Read woken by a deadline: %v", err)
	}
}

func TestLinkWriteDeadline(t *testing.T) {
	client, _ := dialLink(t)
	finishes(t, "filling the ring", func() { client.Write(make([]byte, linkCap)) })
	client.SetWriteDeadline(time.Now().Add(10 * time.Millisecond))
	finishes(t, "Write past its deadline", func() {
		n, err := client.Write([]byte{1})
		var ne net.Error
		if n != 0 || !errors.As(err, &ne) || !ne.Timeout() {
			t.Errorf("Write into a full ring past its deadline = %d, %v; want a net.Error with Timeout()", n, err)
		}
	})
}

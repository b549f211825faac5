package rdma

import (
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// linkCap is the byte capacity of each direction of a fabric link. The
// publish path's request and response frames are a few hundred bytes, so a
// whole pipelined burst fits; a larger frame streams through in pieces.
const linkCap = 16 << 10

// halfLink is one direction of a link: a fixed-capacity byte ring between
// one end's Write and the other end's Read. Write copies in and returns, so
// a verb costs the poster no rendezvous with the peer's reader; it blocks
// only while the ring is full. The ring owns a copy of every byte: callers
// keep (and release) their buffers exactly as over a socket.
type halfLink struct {
	wmu sync.Mutex // held across one Write, so concurrent Writes never interleave

	mu       sync.Mutex
	canRead  sync.Cond // bytes arrived, an end closed, or the read deadline moved
	canWrite sync.Cond // space freed, an end closed, or the write deadline moved
	buf      [linkCap]byte
	head, n  int  // the unread bytes are buf[head : head+n), wrapping at linkCap
	rclosed  bool // the reading end closed: nothing will consume
	wclosed  bool // the writing end closed: EOF once drained
	rdl, wdl deadline
}

// deadline is one end's read or write deadline, guarded by halfLink.mu.
type deadline struct {
	timer   *time.Timer
	expired bool
}

// set re-arms d for t (zero clears it) and wakes wake's waiters so they see
// the new state. A timer that already fired but has not yet taken h.mu
// finds itself replaced and does nothing.
func (h *halfLink) set(d *deadline, wake *sync.Cond, t time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if d.timer != nil {
		d.timer.Stop()
	}
	d.timer, d.expired = nil, false
	if t.IsZero() {
		return
	}
	wait := time.Until(t)
	if wait <= 0 {
		d.expired = true
		wake.Broadcast()
		return
	}
	var tm *time.Timer
	tm = time.AfterFunc(wait, func() {
		h.mu.Lock()
		if d.timer == tm {
			d.expired = true
			wake.Broadcast()
		}
		h.mu.Unlock()
	})
	d.timer = tm
}

func (h *halfLink) read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		switch {
		case h.rclosed:
			return 0, io.ErrClosedPipe
		case h.rdl.expired:
			return 0, os.ErrDeadlineExceeded
		case h.n > 0:
			c := copy(p, h.buf[h.head:min(h.head+h.n, linkCap)])
			c += copy(p[c:], h.buf[:h.n-c]) // the wrapped remainder, if any
			h.n -= c
			// An emptied ring restarts at 0: ping-pong traffic stays in the
			// same few cache lines and never wraps.
			if h.head = (h.head + c) % linkCap; h.n == 0 {
				h.head = 0
			}
			h.canWrite.Broadcast()
			return c, nil
		case h.wclosed:
			return 0, io.EOF
		}
		h.canRead.Wait()
	}
}

func (h *halfLink) write(p []byte) (int, error) {
	h.wmu.Lock()
	defer h.wmu.Unlock()
	h.mu.Lock()
	defer h.mu.Unlock()
	written := 0
	for {
		switch {
		case h.rclosed || h.wclosed:
			return written, io.ErrClosedPipe
		case h.wdl.expired:
			return written, os.ErrDeadlineExceeded
		case len(p) == 0:
			return written, nil
		case h.n < linkCap:
			free, tail := linkCap-h.n, (h.head+h.n)%linkCap
			c := copy(h.buf[tail:min(tail+free, linkCap)], p)
			c += copy(h.buf[:free-c], p[c:]) // the wrapped remainder, if any
			h.n += c
			p = p[c:]
			written += c
			h.canRead.Broadcast()
			continue
		}
		h.canWrite.Wait()
	}
}

// link is one end of an in-process duplex connection (see Fabric.Dial).
type link struct {
	rx, tx *halfLink
	addr   pipeAddr
}

// newLink returns the two ends of a connection to the listener named name.
func newLink(name string) (client, server net.Conn) {
	a, b := newHalfLink(), newHalfLink()
	return &link{rx: a, tx: b, addr: pipeAddr(name)}, &link{rx: b, tx: a, addr: pipeAddr(name)}
}

func newHalfLink() *halfLink {
	h := new(halfLink)
	h.canRead.L, h.canWrite.L = &h.mu, &h.mu
	return h
}

func (l *link) Read(p []byte) (int, error)  { return l.rx.read(p) }
func (l *link) Write(p []byte) (int, error) { return l.tx.write(p) }

// Close shuts both directions from this end, with net.Pipe's semantics:
// parked readers and writers on either end wake; this end's I/O and the
// peer's Writes fail io.ErrClosedPipe; the peer's Reads drain what was
// written before the close, then return io.EOF.
func (l *link) Close() error {
	l.rx.shut(&l.rx.rclosed)
	l.tx.shut(&l.tx.wclosed)
	l.SetDeadline(time.Time{}) // stop this end's timers
	return nil
}

// shut marks one end of h closed and wakes everything parked on it.
func (h *halfLink) shut(end *bool) {
	h.mu.Lock()
	*end = true
	h.canRead.Broadcast()
	h.canWrite.Broadcast()
	h.mu.Unlock()
}

func (l *link) LocalAddr() net.Addr  { return l.addr }
func (l *link) RemoteAddr() net.Addr { return l.addr }

func (l *link) SetDeadline(t time.Time) error {
	l.SetReadDeadline(t)
	return l.SetWriteDeadline(t)
}

func (l *link) SetReadDeadline(t time.Time) error {
	l.rx.set(&l.rx.rdl, &l.rx.canRead, t)
	return nil
}

func (l *link) SetWriteDeadline(t time.Time) error {
	l.tx.set(&l.tx.wdl, &l.tx.canWrite, t)
	return nil
}

package rdma

import (
	"fmt"
	"net"
	"sync"
)

// Fabric is an in-process RDMA network: a named set of endpoints reachable
// through buffered in-memory links (see link.go) — a Write lands in a
// bounded ring and returns without waiting for the peer's Read, as a socket
// send does. It lets a whole cluster — control plane plus many data-plane
// nodes — run in one test or benchmark process with the same QP/endpoint
// code paths used over real TCP.
type Fabric struct {
	mu    sync.Mutex
	ports map[string]*pipeListener
}

// NewFabric creates an empty fabric.
func NewFabric() *Fabric {
	return &Fabric{ports: make(map[string]*pipeListener)}
}

// Listen claims a name on the fabric and returns a listener for it; an
// endpoint typically passes this straight to Serve.
func (f *Fabric) Listen(name string) (net.Listener, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.ports[name]; dup {
		return nil, fmt.Errorf("rdma: fabric name %q already in use", name)
	}
	l := &pipeListener{
		name:   name,
		accept: make(chan net.Conn),
		closed: make(chan struct{}),
		onClose: func() {
			f.mu.Lock()
			delete(f.ports, name)
			f.mu.Unlock()
		},
	}
	f.ports[name] = l
	return l, nil
}

// Dial opens a connection (one QP's transport) to the named listener.
func (f *Fabric) Dial(name string) (net.Conn, error) {
	f.mu.Lock()
	l, ok := f.ports[name]
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("rdma: no fabric listener named %q", name)
	}
	client, server := newLink(name)
	select {
	case l.accept <- server:
		return client, nil
	case <-l.closed:
		client.Close()
		server.Close()
		return nil, fmt.Errorf("rdma: fabric listener %q closed", name)
	}
}

// DialQP is Dial followed by NewQP.
func (f *Fabric) DialQP(name string) (*QP, error) {
	conn, err := f.Dial(name)
	if err != nil {
		return nil, err
	}
	return NewQP(conn), nil
}

// pipeListener adapts a channel of links to net.Listener.
type pipeListener struct {
	name    string
	accept  chan net.Conn
	closed  chan struct{}
	once    sync.Once
	onClose func()
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() {
		close(l.closed)
		if l.onClose != nil {
			l.onClose()
		}
	})
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr(l.name) }

type pipeAddr string

func (a pipeAddr) Network() string { return "rdx-fabric" }
func (a pipeAddr) String() string  { return string(a) }

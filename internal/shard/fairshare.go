package shard

import "sync"

// fairQueue schedules queued jobs across tenants within one shard by round
// robin: every push lands in the tenant's FIFO, every pop takes the head of
// the tenant at the front of the ring and, if that tenant still has jobs,
// moves it to the back. A tenant joins the ring when its FIFO goes
// non-empty and is forgotten — ring and map alike — when it drains, so
// idleness banks no credit, a burst from one tenant cannot starve the
// others, and the queue's state is bounded by its backlog.
//
// push blocks while the queue is at capacity; pop blocks while it is
// empty. close(err) unblocks everything: queued jobs complete with err,
// pushers and poppers return closed.
type fairQueue struct {
	mu   sync.Mutex
	full *sync.Cond
	work *sync.Cond

	cap    int
	depth  int
	fifos  map[string][]*Job // backlogged tenants' FIFOs
	ring   []string          // backlogged tenants in service order from ring[head]
	head   int
	closed bool
	err    error
}

func newFairQueue(capacity int) *fairQueue {
	q := &fairQueue{cap: capacity, fifos: map[string][]*Job{}}
	q.full = sync.NewCond(&q.mu)
	q.work = sync.NewCond(&q.mu)
	return q
}

// push enqueues j under its tenant, blocking while the shard's queue is at
// capacity. Returns the close error (or ErrShardUnavailable) if the queue
// closed first.
func (q *fairQueue) push(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.depth >= q.cap && !q.closed {
		q.full.Wait()
	}
	if q.closed {
		return q.closeErr()
	}
	fifo, backlogged := q.fifos[j.Tenant]
	if !backlogged {
		// (Re-)activation: the tenant takes its turn after every tenant
		// already backlogged, not from banked history.
		q.enqueue(j.Tenant)
	}
	q.fifos[j.Tenant] = append(fifo, j)
	q.depth++
	q.work.Signal()
	return nil
}

// pop dequeues the next job by fair share, blocking while the queue is
// empty. ok is false once the queue closed and drained its jobs via
// close(err) — pending jobs are never silently dropped.
func (q *fairQueue) pop() (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.depth == 0 && !q.closed {
		q.work.Wait()
	}
	if q.depth == 0 {
		return nil, false
	}
	tenant := q.ring[q.head]
	q.ring[q.head] = ""
	q.head++
	fifo := q.fifos[tenant]
	j := fifo[0]
	fifo[0] = nil
	if len(fifo) > 1 {
		q.fifos[tenant] = fifo[1:]
		q.enqueue(tenant)
	} else {
		delete(q.fifos, tenant)
	}
	q.depth--
	q.full.Signal()
	return j, true
}

// enqueue appends tenant to the ring's tail. A full backing array first
// slides the live tenants down over the served prefix, so the ring reuses
// its array instead of growing with every turn.
func (q *fairQueue) enqueue(tenant string) {
	if q.head > 0 && len(q.ring) == cap(q.ring) {
		n := copy(q.ring, q.ring[q.head:])
		clear(q.ring[n:])
		q.ring, q.head = q.ring[:n], 0
	}
	q.ring = append(q.ring, tenant)
}

// close marks the queue dead and fails every queued job with err, waking
// all blocked pushers and poppers.
func (q *fairQueue) close(err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.err = err
	for _, fifo := range q.fifos {
		for _, j := range fifo {
			j.finish(q.closeErr())
		}
	}
	clear(q.fifos)
	q.ring, q.head = nil, 0
	q.depth = 0
	q.full.Broadcast()
	q.work.Broadcast()
}

func (q *fairQueue) closeErr() error {
	if q.err != nil {
		return q.err
	}
	return ErrShardUnavailable
}

// len reports the current queue depth.
func (q *fairQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depth
}

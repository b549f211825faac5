package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"rdx/internal/rdma"
)

// DefaultTransient classifies per-node errors worth retrying: transport
// teardown (the QP died mid-verb, a verb timed out, a post was refused),
// network-level failures, and lost atomic completions. Remote status errors
// (bounds, access, malformed ops) and validation failures are
// deterministic, so retrying them only burns the job's deadline.
//
// ErrUncertain counts as retryable because pipeline stages are re-driveable
// end to end: a duplicated FETCH_ADD burns ring space but stays correct,
// and a duplicated CAS re-reads the publish slot before swapping.
func DefaultTransient(err error) bool {
	if err == nil {
		return false
	}
	if rdma.IsTransportErr(err) || errors.Is(err, rdma.ErrUncertain) {
		return true
	}
	var netErr net.Error
	return errors.As(err, &netErr)
}

// fullJitter draws a uniformly random delay in [0, d]. Decorrelating the
// exponential schedule this way spreads simultaneous retriers — a fleet of
// shard workers that all saw the same transient fault would otherwise
// hammer the node again in lockstep at exactly backoff, 2*backoff, ...
func fullJitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(int64(d) + 1))
}

// withRetry runs fn with the scheduler's backoff policy — exponential with
// full jitter — returning the number of attempts made. The context
// deadline bounds both the attempts and the sleeps between them.
func (s *Scheduler) withRetry(ctx context.Context, fn func() error) (attempts int, err error) {
	backoff := firstBackoff
	for attempt := 1; ; attempt++ {
		if ctx.Err() != nil {
			return attempt, fmt.Errorf("pipeline: deadline: %w", ctx.Err())
		}
		err = fn()
		if err == nil || attempt > s.retries || !DefaultTransient(err) {
			return attempt, err
		}
		s.m.retries.Inc()
		select {
		case <-time.After(fullJitter(backoff)):
		case <-ctx.Done():
			return attempt, fmt.Errorf("pipeline: deadline during backoff: %w (last error: %v)", ctx.Err(), err)
		}
		backoff = min(2*backoff, maxBackoff)
	}
}

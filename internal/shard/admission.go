package shard

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rdx/internal/clock"
	"rdx/internal/telemetry"
)

// ErrQuotaExceeded reports that a tenant's token bucket (publishes/sec or
// staged bytes/sec) refused the job. It is a deterministic admission
// verdict, not a transport failure: retrying immediately only re-spends
// the tenant's tokens, so callers should back off or shed load.
var ErrQuotaExceeded = errors.New("shard: tenant quota exceeded")

// ErrShardUnavailable reports that the shard owning the job's (tenant,
// hook) key cannot take work: its leader is fenced or deposed, it is
// draining after a failure, or no shard owns the key yet. Only that
// shard's key range is affected — the router keeps dispatching to every
// other shard.
var ErrShardUnavailable = errors.New("shard: shard unavailable")

// TenantQuota bounds one tenant's admission rate. A zero or negative rate
// leaves that dimension unlimited; a zero burst defaults to one second of
// rate (so a fresh bucket admits a brief spike before throttling to
// steady state).
type TenantQuota struct {
	PublishPerSec float64 // publish jobs admitted per second
	PublishBurst  float64 // bucket depth in jobs
	BytesPerSec   float64 // staged bytes admitted per second
	BytesBurst    float64 // bucket depth in bytes
}

// tokenBucket is a standard leaky token bucket on a monotonic clock.
type tokenBucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newBucket(rate, burst float64, now time.Time) *tokenBucket {
	if burst <= 0 {
		burst = rate
	}
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// take refills by elapsed time and withdraws n tokens if available.
func (b *tokenBucket) take(now time.Time, n float64) bool {
	if elapsed := now.Sub(b.last).Seconds(); elapsed > 0 {
		b.tokens += elapsed * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

// tenantBuckets is one tenant's admission state. Either bucket may be nil
// (unlimited dimension).
type tenantBuckets struct {
	publish *tokenBucket
	bytes   *tokenBucket
}

// Admission is the router's per-tenant admission controller. Tenants get
// the default quota on first sight; SetQuota overrides per tenant.
type Admission struct {
	clock clock.Clock

	mu      sync.Mutex
	def     TenantQuota
	tenants map[string]*tenantBuckets
	quotas  map[string]TenantQuota

	admitted      *telemetry.Counter
	rejectedRate  *telemetry.Counter
	rejectedBytes *telemetry.Counter
	refunded      *telemetry.Counter
}

// NewAdmission builds an admission controller registering its counters
// ("shard.admission.*") in reg.
func NewAdmission(def TenantQuota, reg *telemetry.Registry) *Admission {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Admission{
		clock:         clock.Real{},
		def:           def,
		tenants:       map[string]*tenantBuckets{},
		quotas:        map[string]TenantQuota{},
		admitted:      reg.Counter("shard.admission.admitted"),
		rejectedRate:  reg.Counter("shard.admission.rejected.publishes"),
		rejectedBytes: reg.Counter("shard.admission.rejected.bytes"),
		refunded:      reg.Counter("shard.admission.refunded"),
	}
}

// WithClock rebinds bucket-refill time onto clock (the simulator's seam;
// production stays on the wall clock). Call before first Admit.
func (a *Admission) WithClock(clk clock.Clock) *Admission {
	if clk != nil {
		a.clock = clk
	}
	return a
}

// SetQuota overrides a tenant's quota, resetting its buckets so the new
// limits take effect immediately.
func (a *Admission) SetQuota(tenant string, q TenantQuota) {
	a.mu.Lock()
	a.quotas[tenant] = q
	delete(a.tenants, tenant)
	a.mu.Unlock()
}

// buckets returns (lazily creating) the tenant's admission state.
func (a *Admission) buckets(tenant string, now time.Time) *tenantBuckets {
	tb, ok := a.tenants[tenant]
	if ok {
		return tb
	}
	q, ok := a.quotas[tenant]
	if !ok {
		q = a.def
	}
	tb = &tenantBuckets{}
	if q.PublishPerSec > 0 {
		tb.publish = newBucket(q.PublishPerSec, q.PublishBurst, now)
	}
	if q.BytesPerSec > 0 {
		tb.bytes = newBucket(q.BytesPerSec, q.BytesBurst, now)
	}
	a.tenants[tenant] = tb
	return tb
}

// Admit charges one publish plus bytes staged bytes against the tenant's
// buckets, refusing with a typed ErrQuotaExceeded when either is dry. The
// charge is atomic: a job refused on bytes does not burn a publish token.
func (a *Admission) Admit(tenant string, bytes int) error {
	now := a.clock.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	tb := a.buckets(tenant, now)
	// Peek both buckets before withdrawing from either.
	if tb.publish != nil && !tb.publish.take(now, 1) {
		a.rejectedRate.Inc()
		return fmt.Errorf("%w: tenant %q over publish rate", ErrQuotaExceeded, tenant)
	}
	if tb.bytes != nil && bytes > 0 && !tb.bytes.take(now, float64(bytes)) {
		if tb.publish != nil {
			tb.publish.credit(1) // refund the publish token: the job was not admitted
		}
		a.rejectedBytes.Inc()
		return fmt.Errorf("%w: tenant %q over staged-bytes rate (%d bytes)", ErrQuotaExceeded, tenant, bytes)
	}
	a.admitted.Inc()
	return nil
}

// credit returns n tokens to a bucket, never past its burst depth.
func (b *tokenBucket) credit(n float64) {
	b.tokens += n
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// Refund returns one publish token plus bytes staged bytes to the tenant —
// the undo of Admit for a job that never reached a shard (ring empty,
// owner absent or fenced, queue closed under the submitter). Admission is
// a charge for control-plane work; a job the control plane never saw must
// not consume quota, or retries against a downed shard would convert
// ErrShardUnavailable into ErrQuotaExceeded. Credits are capped at each
// bucket's burst, so a refund can never mint tokens the quota would not
// have granted.
func (a *Admission) Refund(tenant string, bytes int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	tb, ok := a.tenants[tenant]
	if !ok {
		return // quota reset (SetQuota) since admission: nothing to return to
	}
	if tb.publish != nil {
		tb.publish.credit(1)
	}
	if tb.bytes != nil && bytes > 0 {
		tb.bytes.credit(float64(bytes))
	}
	a.refunded.Inc()
}

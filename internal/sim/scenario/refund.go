//go:build !simregression

package scenario

// skipRefundOnDrain re-seeds the historical refund-on-failure router race
// when true: a publish whose owner refused work (a draining shard, in the
// admission scenario) returned without refunding the admission charge,
// leaking tenant quota on every refusal. The normal build keeps the fixed
// behavior.
const skipRefundOnDrain = false

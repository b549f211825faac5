//go:build simregression

package scenario

// Regression build: the publish path skips its admission refund when the
// owner refuses work, reproducing the historical refund-on-failure bug for
// the simulator's token-conservation invariant to find.
const skipRefundOnDrain = true

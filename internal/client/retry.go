package client

import (
	"repro/internal/core"
	"repro/internal/metrics"
)

// This file is the client half of the unreliable-channel model (DESIGN.md
// §9): every server round trip runs through a timeout/retransmission loop
// with exponential backoff, and a query whose retries are exhausted
// degrades to serving whatever cached copies the client holds — stale or
// not — exactly as disconnected operation (§5.6) would. On a lossless
// channel (no fault models attached) every frame is delivered, so the
// first attempt always succeeds: the timeout is armed but never waited
// on, nothing is retried, and the round trip is the §4 flow.

// Reliability-layer defaults and constants. The timeout is derived from
// message sizes and the channel bandwidth rather than fixed, so it adapts to
// reply size; the slack absorbs server processing and queueing behind other
// clients.
const (
	// DefaultMaxRetries is how many times a request is retransmitted after
	// the initial attempt before the client gives up.
	DefaultMaxRetries = 3
	// DefaultBackoffBase is the first retransmission delay in seconds;
	// attempt k waits base·2^(k−1), jittered.
	DefaultBackoffBase = 1.0
	// backoffMax caps the exponential backoff delay.
	backoffMax = 30.0
	// timeoutSlack multiplies the estimated request+reply transfer time to
	// produce the per-request timeout.
	timeoutSlack = 3.0
	// DefaultReplyEstimateBytes seeds the reply-size estimate used by the
	// timeout before the first reply has been observed.
	DefaultReplyEstimateBytes = 2048
)

// RetryConfig tunes the reliability layer. The zero value selects the
// defaults above; MaxRetries < 0 disables retransmission entirely (one
// attempt, then degrade).
type RetryConfig struct {
	MaxRetries  int
	BackoffBase float64
}

// withDefaults resolves zero fields.
func (r RetryConfig) withDefaults() RetryConfig {
	if r.MaxRetries == 0 {
		r.MaxRetries = DefaultMaxRetries
	}
	if r.MaxRetries < 0 {
		r.MaxRetries = 0
	}
	if r.BackoffBase == 0 {
		r.BackoffBase = DefaultBackoffBase
	}
	return r
}

// requestTimeout derives the per-request timeout from the request size, the
// running reply-size estimate, and the channel bandwidths.
func (c *Client) requestTimeout(reqBytes int) float64 {
	return timeoutSlack *
		(c.up.TransferTime(reqBytes) + c.down.TransferTime(c.replyEstimate))
}

// serveDegraded answers the reads of a failed round trip from whatever the
// client still holds: a cached copy — typically expired, or it would have
// been a hit — is served and checked against the oracle like any stale
// read; a read with no copy at all is unavailable. This is the graceful-
// degradation half of the reliability layer: the lease β already encodes
// how much staleness the client tolerates, and these copies carry exactly
// the leases that policy produced (see DESIGN.md §9.3).
func (cm *clientMachine) serveDegraded() {
	c := cm.c
	for _, rd := range cm.need {
		item := core.CoverItem(c.granularity, rd.OID, rd.Attr)
		entry, found := c.local.Peek(item)
		if !found {
			cm.record(metrics.Outcome{Kind: metrics.Unavailable})
			continue
		}
		cm.record(metrics.Outcome{Kind: metrics.Degraded, Error: c.oracle.IsError(item, entry.Version)})
	}
}

// Package health holds the failure-detection primitives of the predictd
// cluster router (internal/cluster) — the one fault-tolerant fan-out,
// which predict-bench -remote rides too: a per-peer circuit breaker and a
// seeded, deterministically-jittered exponential backoff. Both are clock-
// and seed-injected so fault-plan replays (DESIGN.md §8) observe
// identical breaker transitions and retry schedules run to run.
//
// The Breaker is deliberately NOT internally locked: its owner, the
// router, already serializes peer state under its own mutex, and folding
// a second lock in would invite lock-ordering bugs for zero benefit.
// Callers must synchronize.
package health

import "time"

// Breaker states.
const (
	StateClosed   = "closed"
	StateOpen     = "open"
	StateHalfOpen = "half-open"
)

// Breaker is a consecutive-failure circuit breaker: closed → open after
// Threshold straight failures, open → half-open once Cooldown elapses,
// half-open admits exactly one probe whose outcome closes or re-opens
// it. Not safe for concurrent use — the owner synchronizes.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	clock     func() time.Time

	state       string
	consecFails int
	openedAt    time.Time
	probing     bool
	transitions []string
}

// NewBreaker builds a closed breaker. threshold is the consecutive
// failures that open it; cooldown is how long open lasts before a
// half-open probe is admitted; clock supplies the time (inject a fake
// in tests).
func NewBreaker(threshold int, cooldown time.Duration, clock func() time.Time) *Breaker {
	return &Breaker{
		threshold: threshold,
		cooldown:  cooldown,
		clock:     clock,
		state:     StateClosed,
	}
}

// transition moves the breaker to state, recording the edge.
func (b *Breaker) transition(state string) {
	if b.state == state {
		return
	}
	b.transitions = append(b.transitions, b.state+"→"+state)
	b.state = state
}

// Available reports whether the peer may serve a request now. An open
// breaker past its cooldown transitions to half-open (and is then
// available for exactly one probe); a half-open breaker with a probe in
// flight is not available.
func (b *Breaker) Available() bool {
	switch b.state {
	case StateClosed:
		return true
	case StateOpen:
		if b.clock().Sub(b.openedAt) >= b.cooldown {
			b.transition(StateHalfOpen)
			return true
		}
		return false
	default: // half-open: one probe at a time
		return !b.probing
	}
}

// MarkProbing records that the admitted half-open probe is in flight;
// the next OnResult clears it.
func (b *Breaker) MarkProbing() { b.probing = true }

// OnResult folds one request outcome into the breaker.
func (b *Breaker) OnResult(err error) {
	b.probing = false
	if err == nil {
		b.consecFails = 0
		b.transition(StateClosed)
		return
	}
	b.consecFails++
	if b.state == StateHalfOpen || b.consecFails >= b.threshold {
		b.transition(StateOpen)
		b.openedAt = b.clock()
	}
}

// State returns the current breaker state.
func (b *Breaker) State() string { return b.state }

// Transitions returns a copy of the recorded state edges (e.g.
// "closed→open").
func (b *Breaker) Transitions() []string {
	return append([]string(nil), b.transitions...)
}

// Backoff computes capped exponential retry delays with deterministic
// jitter: attempt n (1-based) waits min(Base·2^(n-1), Max) jittered
// into [delay/2, delay) by a seeded xorshift draw — the same schedule
// shape as the task queue's retry backoff, so replays are exact. Not
// safe for concurrent use.
type Backoff struct {
	base, max time.Duration
	rng       uint64
}

// NewBackoff builds a backoff schedule. base is the first delay, max
// the cap, seed drives the jitter.
func NewBackoff(base, max time.Duration, seed uint64) *Backoff {
	return &Backoff{base: base, max: max, rng: seed | 1}
}

func (b *Backoff) next() uint64 {
	b.rng ^= b.rng << 13
	b.rng ^= b.rng >> 7
	b.rng ^= b.rng << 17
	return b.rng
}

// Delay returns the jittered delay for the given 1-based attempt.
func (b *Backoff) Delay(attempt int) time.Duration {
	if b.base <= 0 {
		return 0
	}
	d := b.base
	for i := 1; i < attempt && d < b.max; i++ {
		d *= 2
	}
	if d > b.max {
		d = b.max
	}
	if d <= 0 {
		return 0
	}
	half := d / 2
	return half + time.Duration(b.next()%uint64(half+1))
}

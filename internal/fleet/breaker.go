package fleet

import (
	"sync"
	"time"
)

// breakerState is the classic three-state circuit breaker.
type breakerState int

const (
	breakerClosed   breakerState = iota // normal: requests flow
	breakerOpen                         // shedding: requests skip this replica
	breakerHalfOpen                     // cooled down: one probe request in flight
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker sheds traffic from a flapping replica. Membership ejection is
// the slow loop (probe-driven, seconds); the breaker is the fast loop
// (request-driven, immediate): a replica that starts failing requests
// stops being offered new ones after threshold consecutive failures,
// long before the prober notices. After cooldown one half-open probe
// request is allowed through; its outcome closes or re-opens the
// breaker.
type breaker struct {
	mu        sync.Mutex
	state     breakerState
	fails     int
	threshold int
	cooldown  time.Duration
	openedAt  time.Time
	now       func() time.Time // test seam
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if threshold < 1 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = 2 * time.Second
	}
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// allow reports whether a request may be sent to this replica right now.
// In the open state it flips to half-open once the cooldown has passed,
// granting exactly one probe; further allow calls say no until that
// probe reports.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			return true
		}
		return false
	default: // half-open: the probe slot is taken
		return false
	}
}

// report feeds one request outcome back. A half-open probe's success
// closes the breaker; any half-open failure — or the threshold'th
// consecutive closed-state failure — opens it.
func (b *breaker) report(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.state = breakerClosed
		b.fails = 0
		return
	}
	b.fails++
	if b.state == breakerHalfOpen || b.fails >= b.threshold {
		if b.state != breakerOpen {
			mBreakerOpens.Inc()
		}
		b.state = breakerOpen
		b.openedAt = b.now()
		b.fails = 0
	}
}

// abandon settles a request the router cancelled itself, counting it as
// neither success nor failure. An abandoned half-open probe gives its
// slot back: the breaker returns to open with its cooldown already
// served, so the next allow probes again.
func (b *breaker) abandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.state = breakerOpen
	}
}

// peek returns the current state without side effects (status endpoint).
func (b *breaker) peek() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// open reports whether the breaker is currently shedding (open and still
// cooling). Used by the routing plan to deprioritize, not skip, since
// allow() at dispatch time has the final say.
func (b *breaker) open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == breakerOpen && b.now().Sub(b.openedAt) < b.cooldown
}

package fleet

import (
	"testing"
	"time"
)

// fakeClock is a hand-cranked time source for breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testBreaker(threshold int, cooldown time.Duration) (*breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := newBreaker(threshold, cooldown)
	b.now = clk.now
	return b, clk
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b, _ := testBreaker(3, time.Second)
	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.report(false)
	}
	if b.peek() != breakerClosed {
		t.Fatalf("after 2/3 failures state = %v, want closed", b.peek())
	}
	b.report(false)
	if b.peek() != breakerOpen {
		t.Fatalf("after 3/3 failures state = %v, want open", b.peek())
	}
	if b.allow() {
		t.Fatal("open breaker allowed a request before cooldown")
	}
	if !b.open() {
		t.Fatal("open() = false while shedding")
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b, _ := testBreaker(3, time.Second)
	b.report(false)
	b.report(false)
	b.report(true) // streak broken
	b.report(false)
	b.report(false)
	if b.peek() != breakerClosed {
		t.Fatalf("interleaved successes must reset the streak; state = %v", b.peek())
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b, clk := testBreaker(1, time.Second)
	b.report(false)
	if b.allow() {
		t.Fatal("open breaker allowed a request")
	}
	clk.advance(time.Second)
	if !b.allow() {
		t.Fatal("cooled-down breaker refused the half-open probe")
	}
	if b.peek() != breakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.peek())
	}
	if b.allow() {
		t.Fatal("half-open breaker granted a second concurrent probe")
	}
	// Probe succeeds → closed, traffic flows again.
	b.report(true)
	if b.peek() != breakerClosed || !b.allow() {
		t.Fatalf("successful probe must close the breaker; state = %v", b.peek())
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b, clk := testBreaker(5, time.Second)
	for i := 0; i < 5; i++ {
		b.report(false)
	}
	clk.advance(time.Second)
	if !b.allow() {
		t.Fatal("refused half-open probe")
	}
	b.report(false) // one failure re-opens immediately, no threshold wait
	if b.peek() != breakerOpen {
		t.Fatalf("failed probe must reopen; state = %v", b.peek())
	}
	if b.allow() {
		t.Fatal("reopened breaker allowed a request without a fresh cooldown")
	}
}

// TestBreakerAbandonReleasesProbe: a request the router cancelled itself
// counts neither way. In the closed state it leaves the failure streak
// alone; as a half-open probe it gives the probe slot back, so the
// breaker does not stay half-open with no probe outstanding.
func TestBreakerAbandonReleasesProbe(t *testing.T) {
	b, clk := testBreaker(2, time.Second)
	b.report(false)
	b.abandon()
	if b.peek() != breakerClosed || b.fails != 1 {
		t.Fatalf("abandon changed a closed breaker: state %v, fails %d", b.peek(), b.fails)
	}
	b.report(false)
	clk.advance(time.Second)
	if !b.allow() {
		t.Fatal("refused half-open probe")
	}
	b.abandon()
	if b.peek() != breakerOpen {
		t.Fatalf("abandoned probe: state = %v, want open", b.peek())
	}
	if !b.allow() {
		t.Fatal("abandoned probe's slot was not given back")
	}
}

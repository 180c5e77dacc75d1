package linkserv

import "time"

// Backoff is a capped-exponential retry pacer: Next returns the current
// delay and doubles it, Reset drops back to the base after a success. The
// zero value is unusable; fill Base and Cap (newBackoff applies them).
// Backoff is not safe for concurrent use — each retry loop owns one.
type Backoff struct {
	// Base is the first delay.
	Base time.Duration
	// Cap bounds the delay growth.
	Cap time.Duration

	next time.Duration
}

func newBackoff(base, cap time.Duration) Backoff {
	return Backoff{Base: base, Cap: cap}
}

// Next returns the delay to wait before the upcoming retry and advances
// the schedule.
func (b *Backoff) Next() time.Duration {
	d := b.next
	if d <= 0 {
		d = b.Base
	}
	if d > b.Cap {
		d = b.Cap
	}
	n := 2 * d
	if n > b.Cap {
		n = b.Cap
	}
	b.next = n
	return d
}

// Reset returns the schedule to the base delay.
func (b *Backoff) Reset() { b.next = 0 }

// sleepOr waits d unless ch closes first — the interruptible sleep every
// retry loop uses so teardown never waits out a backoff.
func sleepOr(d time.Duration, ch <-chan struct{}) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ch:
	}
}

// arm starts the timer *t for d, creating it on first use, and returns its
// channel: the one-timer-per-owner pattern of sessions and flows, whose
// waits run one at a time. Under the Go 1.23 timer semantics (go.mod says
// 1.24), Reset guarantees that no expiry of an earlier arming is received
// afterwards, so a reused timer never ends a wait early. Each wait stops
// the timer when it returns.
func arm(t **time.Timer, d time.Duration) <-chan time.Time {
	if *t == nil {
		*t = time.NewTimer(d)
	} else {
		(*t).Reset(d)
	}
	return (*t).C
}

package health

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestBreakerWalk drives one breaker through its whole state machine on a
// fake clock: a table of steps, each either time passing, a request
// outcome, or an admission check, with the state expected after it.
func TestBreakerWalk(t *testing.T) {
	const threshold, cooldown = 3, 5 * time.Second
	now := time.Unix(1000, 0)
	b := NewBreaker(threshold, cooldown, func() time.Time { return now })
	down := errors.New("down")

	type step struct {
		what      string
		advance   time.Duration
		result    *error // fold this outcome (nil pointer: none)
		admit     *bool  // expected Available() (nil: not asked)
		probe     bool   // MarkProbing after the admission, as an owner does
		wantState string
		probing   bool // a half-open probe is in flight after the step
	}
	yes, no := true, false
	var ok error
	steps := []step{
		{what: "fresh breaker admits", admit: &yes, wantState: StateClosed},
		{what: "failure 1 of 3", result: &down, wantState: StateClosed},
		{what: "failure 2 of 3", result: &down, wantState: StateClosed},
		{what: "a success resets the streak", result: &ok, wantState: StateClosed},
		{what: "failure 1 again", result: &down, wantState: StateClosed},
		{what: "failure 2 again", result: &down, wantState: StateClosed},
		{what: "the third straight failure opens it", result: &down, wantState: StateOpen},
		{what: "open refuses", admit: &no, wantState: StateOpen},
		{what: "still refusing just short of the cooldown", advance: cooldown - time.Nanosecond, admit: &no, wantState: StateOpen},
		{what: "the cooldown elapsed: half-open admits one probe", advance: time.Nanosecond, admit: &yes, probe: true, wantState: StateHalfOpen, probing: true},
		{what: "and only one", admit: &no, wantState: StateHalfOpen, probing: true},
		{what: "the probe fails: open again, on a fresh cooldown", result: &down, wantState: StateOpen},
		{what: "the old cooldown no longer counts", advance: cooldown - time.Nanosecond, admit: &no, wantState: StateOpen},
		{what: "second probe admitted", advance: time.Nanosecond, admit: &yes, probe: true, wantState: StateHalfOpen, probing: true},
		{what: "it succeeds: closed", result: &ok, wantState: StateClosed},
		{what: "closed admits freely", admit: &yes, wantState: StateClosed},
		{what: "and the failure streak started over", result: &down, wantState: StateClosed},
	}
	for i, s := range steps {
		now = now.Add(s.advance)
		if s.result != nil {
			b.OnResult(*s.result)
		}
		if s.admit != nil {
			if got := b.Available(); got != *s.admit {
				t.Fatalf("step %d (%s): Available = %v, want %v", i, s.what, got, *s.admit)
			}
			if s.probe {
				b.MarkProbing()
			}
		}
		if b.probing != s.probing {
			t.Fatalf("step %d (%s): probing = %v", i, s.what, b.probing)
		}
		if b.State() != s.wantState {
			t.Fatalf("step %d (%s): state %s, want %s", i, s.what, b.State(), s.wantState)
		}
	}
	want := []string{
		"closed→open", "open→half-open", "half-open→open", "open→half-open", "half-open→closed",
	}
	got := b.Transitions()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("transitions %v, want %v", got, want)
	}
	got[0] = "scribbled"
	if b.Transitions()[0] != want[0] {
		t.Error("Transitions must return a copy")
	}
}

// TestBackoffIsItsSeedsSchedule: the same seed yields the same delays,
// draw for draw; each sits in [d/2, d) of its capped exponential step (d
// itself when the jitter draw lands on it); another seed jitters
// differently.
func TestBackoffIsItsSeedsSchedule(t *testing.T) {
	const base, max = 10 * time.Millisecond, 160 * time.Millisecond
	schedule := func(seed uint64) []time.Duration {
		b := NewBackoff(base, max, seed)
		var out []time.Duration
		for round := 0; round < 3; round++ {
			for attempt := 1; attempt <= 8; attempt++ {
				out = append(out, b.Delay(attempt))
			}
		}
		return out
	}
	a, again, other := schedule(7), schedule(7), schedule(8)
	if fmt.Sprint(a) != fmt.Sprint(again) {
		t.Errorf("seed 7 twice:\n%v\n%v", a, again)
	}
	if fmt.Sprint(a) == fmt.Sprint(other) {
		t.Error("seeds 7 and 8 drew the same jitter")
	}
	for i, d := range a {
		step := base << (i % 8)
		if step > max {
			step = max
		}
		if d < step/2 || d > step {
			t.Errorf("delay %d (attempt %d) = %v, outside [%v, %v]", i, i%8+1, d, step/2, step)
		}
	}
	if d := NewBackoff(0, max, 1).Delay(3); d != 0 {
		t.Errorf("a zero base delays %v, want none", d)
	}
}

package faultinject

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	d := p.Fire(OpTask, 0, "x")
	if d.Err != nil || d.Delay != 0 {
		t.Errorf("nil plan fired: %+v", d)
	}
	if p.Log() != nil || p.Rules() != nil {
		t.Error("nil plan has state")
	}
	p.Reset() // must not panic
}

func TestAtAndCount(t *testing.T) {
	p := New(1, Rule{Op: OpTask, Kind: KindError, Worker: -1, At: 3, Count: 2})
	var fired []int
	for i := 1; i <= 6; i++ {
		if d := p.Fire(OpTask, 0, "t"); d.Err != nil {
			fired = append(fired, i)
			if !errors.Is(d.Err, ErrInjected) {
				t.Errorf("err %v does not wrap ErrInjected", d.Err)
			}
		}
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 4 {
		t.Errorf("fired on events %v, want [3 4]", fired)
	}
}

func TestWorkerAndKeyMatch(t *testing.T) {
	p := New(1,
		Rule{Op: OpTask, Kind: KindDelay, Delay: 5 * time.Millisecond, Worker: 2},
		Rule{Op: OpHTTP, Kind: KindReset, Worker: -1, Key: "host-b"},
	)
	if d := p.Fire(OpTask, 1, "t"); d.Delay != 0 {
		t.Error("worker 1 should not straggle")
	}
	if d := p.Fire(OpTask, 2, "t"); d.Delay != 5*time.Millisecond {
		t.Errorf("worker 2 delay = %v", d.Delay)
	}
	if d := p.Fire(OpHTTP, 0, "host-a:1"); d.Err != nil {
		t.Error("host-a should be healthy")
	}
	d := p.Fire(OpHTTP, 0, "host-b:1")
	if !errors.Is(d.Err, ErrReset) {
		t.Errorf("host-b err = %v, want reset", d.Err)
	}
}

func TestRateIsDeterministic(t *testing.T) {
	run := func() []int {
		p := New(42, Rule{Op: OpTask, Kind: KindError, Worker: -1, Rate: 0.3})
		var fired []int
		for i := 0; i < 100; i++ {
			if d := p.Fire(OpTask, 0, fmt.Sprint(i)); d.Err != nil {
				fired = append(fired, i)
			}
		}
		return fired
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 100 {
		t.Fatalf("rate 0.3 fired %d/100 times", len(a))
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("same seed, different sequences:\n%v\n%v", a, b)
	}
}

func TestResetReplaysIdentically(t *testing.T) {
	p := New(7,
		Rule{Op: OpTask, Kind: KindError, Worker: -1, Rate: 0.5},
		Rule{Op: OpTask, Kind: KindDelay, Delay: time.Millisecond, Worker: -1, At: 4, Count: 1},
	)
	drive := func() []Event {
		for i := 0; i < 20; i++ {
			p.Fire(OpTask, i%3, fmt.Sprintf("task%d", i))
		}
		return p.Log()
	}
	first := drive()
	p.Reset()
	second := drive()
	if len(first) == 0 {
		t.Fatal("no events fired")
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Errorf("replay diverged:\n%v\n%v", first, second)
	}
}

func TestCrashBeatsDelay(t *testing.T) {
	p := New(1,
		Rule{Op: OpPutBefore, Kind: KindDelay, Delay: time.Millisecond, Worker: -1},
		Rule{Op: OpPutBefore, Kind: KindCrash, Worker: -1},
	)
	d := p.Fire(OpPutBefore, -1, "k")
	if !errors.Is(d.Err, ErrCrash) {
		t.Errorf("err = %v, want crash", d.Err)
	}
	if d.Delay != time.Millisecond {
		t.Errorf("delay rules should still accumulate: %v", d.Delay)
	}
}

func TestParse(t *testing.T) {
	p, err := Parse(9, `
		# a comment
		task error at=10 count=2
		task delay=200ms worker=2
		http reset endpoint=127.0.0.1:7001; http error rate=0.5
		put-before crash at=1 count=1
	`)
	if err != nil {
		t.Fatal(err)
	}
	rules := p.Rules()
	if len(rules) != 5 {
		t.Fatalf("rules = %d, want 5", len(rules))
	}
	if rules[0].At != 10 || rules[0].Count != 2 || rules[0].Kind != KindError {
		t.Errorf("rule 0 = %+v", rules[0])
	}
	if rules[1].Worker != 2 || rules[1].Delay != 200*time.Millisecond {
		t.Errorf("rule 1 = %+v", rules[1])
	}
	if rules[2].Key != "127.0.0.1:7001" || rules[2].Kind != KindReset {
		t.Errorf("rule 2 = %+v", rules[2])
	}
	if rules[3].Op != OpHTTP || rules[3].Rate != 0.5 {
		t.Errorf("rule 3 = %+v", rules[3])
	}
	if rules[4].Op != OpPutBefore || rules[4].Kind != KindCrash {
		t.Errorf("rule 4 = %+v", rules[4])
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"task",                  // missing kind
		"nope error",            // unknown op
		"call reset",            // the retired RPC pool's ops: unknown now
		"dial error",            // likewise
		"task explode",          // unknown kind
		"task delay",            // delay without duration
		"task delay=xyz",        // bad duration
		"task error at=ten",     // bad int
		"task error foo=1",      // unknown matcher
		"task error=1s",         // value on valueless kind
		"task error noequals==", // stray =
	} {
		if _, err := Parse(1, bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

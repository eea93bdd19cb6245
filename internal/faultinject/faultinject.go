// Package faultinject is the deterministic fault-injection framework of
// predict-bench's resilience layer. A Plan scripts failures — worker
// death, straggler delays, connection resets, crashes around
// checkpoint writes — against the operation stream of a run, and replays
// them exactly: matching is by per-rule event counters and a seeded
// xorshift generator, never by wall clock, so the same plan over the
// same schedule produces the same failure sequence.
//
// Subsystems call Fire at their fault points (the queue before each task
// attempt, an HTTP client's RoundTripper before each request, the store
// around WAL and snapshot writes) and obey the returned Decision. A nil *Plan is inert,
// so production paths pay one nil check.
//
// Plans are built programmatically (Plan{Rules: ...}) or parsed from the
// compact text format of the predict-bench -fault-plan flag:
//
//	task error at=10 count=2          # 10th and 11th task attempts fail
//	task delay=200ms worker=2         # worker 2 straggles on every task
//	http reset key=127.0.0.1:7001     # every request to that peer resets
//	task error rate=0.2               # random faults, seeded
//	put-before crash at=12            # crash before the 12th WAL append
//
// Lines are `<op> <kind> [k=v ...]`; `#` starts a comment; rules are
// separated by newlines or semicolons.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Op names a fault point in the system.
type Op string

// Fault points wired into the queue and store.
const (
	OpTask          Op = "task"           // queue: before a task attempt runs
	OpPutBefore     Op = "put-before"     // store: before the WAL append
	OpPutAfter      Op = "put-after"      // store: after the WAL append, before the ack
	OpCompactBefore Op = "compact-before" // store: snapshot written, before the rename
	OpCompactAfter  Op = "compact-after"  // store: renamed, before the WAL truncate
)

// Fault points of the filesystem seam (errfs over vfs.FS); key is the
// file path ("old -> new" for renames).
const (
	OpFSOpen     Op = "fs-open"     // OpenFile / ReadFile
	OpFSWrite    Op = "fs-write"    // File.Write
	OpFSSync     Op = "fs-sync"     // File.Sync / FS.SyncDir
	OpFSRename   Op = "fs-rename"   // FS.Rename
	OpFSRemove   Op = "fs-remove"   // FS.Remove
	OpFSTruncate Op = "fs-truncate" // FS.Truncate / File.Truncate
)

// Fault points of the network seam (RoundTripper) and the cluster
// replication path; key is host+path for http, "stream/seq" for the
// replication points.
const (
	OpHTTP      Op = "http"       // RoundTripper: before an HTTP request leaves
	OpReplShip  Op = "repl-ship"  // cluster: owner serving one log frame to a follower
	OpReplApply Op = "repl-apply" // cluster: follower about to apply one shipped frame
)

// Fault kinds.
const (
	KindError     = "error"       // the operation fails with ErrInjected
	KindDelay     = "delay"       // the operation is delayed (straggler)
	KindReset     = "reset"       // a connection-level failure
	KindCrash     = "crash"       // the process "dies" here (store leaves partial state)
	KindShort     = "short"       // fs-write only: a torn prefix lands, then io.ErrShortWrite
	KindENOSPC    = "enospc"      // the device is "full": partial write + ENOSPC
	KindPartition = "partition"   // http only: the peer is unreachable (connection refused)
	KindDrop      = "drop"        // http only: the request is blackholed until the caller's deadline
	KindSlow      = "slow-stream" // http only: the response body trickles (per-chunk delay)
)

// ErrInjected is the base error of every injected failure; match it with
// errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// ErrCrash marks a crash-kind injection; it wraps ErrInjected.
var ErrCrash = fmt.Errorf("%w (crash)", ErrInjected)

// ErrReset marks a reset-kind injection; it wraps ErrInjected.
var ErrReset = fmt.Errorf("%w (connection reset)", ErrInjected)

// ErrShortWrite marks a short-kind injection: only a prefix of the
// buffer landed. It wraps both ErrInjected and io.ErrShortWrite.
var ErrShortWrite = fmt.Errorf("%w (%w)", ErrInjected, io.ErrShortWrite)

// ErrNoSpace marks an enospc-kind injection; it wraps both ErrInjected
// and syscall.ENOSPC so callers can match either.
var ErrNoSpace = fmt.Errorf("%w (%w)", ErrInjected, syscall.ENOSPC)

// ErrPartition marks a partition-kind injection: the peer is
// unreachable at the connection level. It wraps both ErrInjected and
// syscall.ECONNREFUSED so network-error matching treats it like a real
// refused dial.
var ErrPartition = fmt.Errorf("%w (%w)", ErrInjected, syscall.ECONNREFUSED)

// ErrDropped marks a drop-kind injection: the request was blackholed
// and the caller's deadline is what surfaced it.
var ErrDropped = fmt.Errorf("%w (request dropped)", ErrInjected)

// Rule scripts one fault. Zero-valued matchers match everything.
type Rule struct {
	// Op selects the fault point.
	Op Op
	// Kind is one of KindError, KindDelay, KindReset, KindCrash.
	Kind string
	// Delay is the straggler duration for KindDelay.
	Delay time.Duration
	// Worker matches a specific queue worker; -1 (or 0 via AnyWorker
	// from the parser) matches all. Use -1 for "any".
	Worker int
	// Key substring-matches the operation key (task ID, store key, or
	// endpoint address); empty matches all.
	Key string
	// At fires starting from the Nth matching event (1-based). 0 means
	// from the first.
	At int
	// Count caps how many times the rule fires; 0 means unlimited.
	Count int
	// Rate fires the rule with this probability per matching event
	// (seeded, deterministic). 0 means always.
	Rate float64
}

// Decision is what a fault point must do.
type Decision struct {
	// Err, when non-nil, is the injected failure (wraps ErrInjected).
	Err error
	// Delay, when positive, is slept before proceeding.
	Delay time.Duration
	// Slow, when positive, is the per-chunk delay a slow-stream rule
	// imposes on the response body (http fault points only).
	Slow time.Duration
}

// Event records one fired fault, for replay assertions.
type Event struct {
	Seq    int
	Op     Op
	Worker int
	Key    string
	Kind   string
}

func (e Event) String() string {
	return fmt.Sprintf("#%d %s %s w%d %s", e.Seq, e.Op, e.Kind, e.Worker, e.Key)
}

type ruleState struct {
	rule    Rule
	matched int // matching events seen
	fired   int // times the rule fired
}

// Plan is a live fault-injection plan; safe for concurrent use. The zero
// Plan (and a nil *Plan) injects nothing.
type Plan struct {
	mu        sync.Mutex
	seed      uint64
	rng       uint64
	rules     []*ruleState
	log       []Event
	crashHook func()
}

// SetCrashHook installs a callback invoked (outside the plan lock)
// whenever a crash-kind rule fires. The multi-process cluster harness
// uses it to turn an injected crash into real process death
// (os.Exit) at an exact seeded operation — kill -9 with deterministic
// timing. In-process harnesses leave it nil and obey Decision.Err.
func (p *Plan) SetCrashHook(hook func()) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.crashHook = hook
	p.mu.Unlock()
}

// New builds a plan from rules with the given seed for Rate draws.
func New(seed uint64, rules ...Rule) *Plan {
	p := &Plan{seed: seed, rng: seed | 1}
	for _, r := range rules {
		rr := r
		p.rules = append(p.rules, &ruleState{rule: rr})
	}
	return p
}

// xorshift64 in place; deterministic given the seed and call order.
func (p *Plan) next() uint64 {
	p.rng ^= p.rng << 13
	p.rng ^= p.rng >> 7
	p.rng ^= p.rng << 17
	return p.rng
}

// Fire evaluates the plan at a fault point. worker is the queue worker
// index (-1 when not applicable); key is the task ID, store key, or
// endpoint address. The strongest matching rule wins: crash > reset >
// error > delay; delays from delay-rules accumulate onto any decision.
func (p *Plan) Fire(op Op, worker int, key string) Decision {
	if p == nil {
		return Decision{}
	}
	p.mu.Lock()
	var d Decision
	kindRank := map[string]int{
		KindDelay: 1, KindSlow: 1, KindError: 2, KindShort: 3, KindENOSPC: 4,
		KindDrop: 5, KindPartition: 6, KindReset: 7, KindCrash: 8,
	}
	best := 0
	for _, rs := range p.rules {
		r := &rs.rule
		if r.Op != op {
			continue
		}
		if r.Worker >= 0 && worker >= 0 && r.Worker != worker {
			continue
		}
		if r.Key != "" && !strings.Contains(key, r.Key) {
			continue
		}
		rs.matched++
		if r.At > 0 && rs.matched < r.At {
			continue
		}
		if r.Count > 0 && rs.fired >= r.Count {
			continue
		}
		if r.Rate > 0 && float64(p.next()%1e6)/1e6 >= r.Rate {
			continue
		}
		rs.fired++
		p.log = append(p.log, Event{
			Seq: len(p.log) + 1, Op: op, Worker: worker, Key: key, Kind: r.Kind,
		})
		switch r.Kind {
		case KindDelay:
			d.Delay += r.Delay
		case KindSlow:
			d.Slow += r.Delay
		default:
			if kindRank[r.Kind] > best {
				best = kindRank[r.Kind]
				switch r.Kind {
				case KindCrash:
					d.Err = fmt.Errorf("%s %q: %w", op, key, ErrCrash)
				case KindReset:
					d.Err = fmt.Errorf("%s %q: %w", op, key, ErrReset)
				case KindShort:
					d.Err = fmt.Errorf("%s %q: %w", op, key, ErrShortWrite)
				case KindENOSPC:
					d.Err = fmt.Errorf("%s %q: %w", op, key, ErrNoSpace)
				case KindPartition:
					d.Err = fmt.Errorf("%s %q: %w", op, key, ErrPartition)
				case KindDrop:
					d.Err = fmt.Errorf("%s %q: %w", op, key, ErrDropped)
				default:
					d.Err = fmt.Errorf("%s %q: %w", op, key, ErrInjected)
				}
			}
		}
	}
	hook := p.crashHook
	p.mu.Unlock()
	if hook != nil && d.Err != nil && errors.Is(d.Err, ErrCrash) {
		hook()
	}
	return d
}

// Log returns a copy of the fired-event sequence.
func (p *Plan) Log() []Event {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Event(nil), p.log...)
}

// Reset rewinds all counters, the RNG, and the event log, so the same
// plan can replay a second run identically.
func (p *Plan) Reset() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rng = p.seed | 1
	p.log = nil
	for _, rs := range p.rules {
		rs.matched, rs.fired = 0, 0
	}
}

// Rules returns a copy of the plan's rules (for re-building a fresh plan
// with the same script, e.g. across a simulated restart).
func (p *Plan) Rules() []Rule {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Rule, len(p.rules))
	for i, rs := range p.rules {
		out[i] = rs.rule
	}
	return out
}

// Seed returns the plan's RNG seed.
func (p *Plan) Seed() uint64 {
	if p == nil {
		return 0
	}
	return p.seed
}

// Parse builds a Plan from the text format (see the package comment).
func Parse(seed uint64, text string) (*Plan, error) {
	var rules []Rule
	for _, line := range strings.FieldsFunc(text, func(r rune) bool { return r == '\n' || r == ';' }) {
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("faultinject: rule %q needs `<op> <kind>`", line)
		}
		r := Rule{Op: Op(fields[0]), Worker: -1}
		switch r.Op {
		case OpTask, OpPutBefore, OpPutAfter, OpCompactBefore, OpCompactAfter,
			OpFSOpen, OpFSWrite, OpFSSync, OpFSRename, OpFSRemove, OpFSTruncate,
			OpHTTP, OpReplShip, OpReplApply:
		default:
			return nil, fmt.Errorf("faultinject: unknown op %q", fields[0])
		}
		kind, dur, hasDur := strings.Cut(fields[1], "=")
		switch kind {
		case KindError, KindReset, KindCrash, KindShort, KindENOSPC, KindPartition, KindDrop:
			if hasDur {
				return nil, fmt.Errorf("faultinject: kind %q takes no value", kind)
			}
		case KindDelay, KindSlow:
			if !hasDur {
				return nil, fmt.Errorf("faultinject: %s needs a duration, e.g. %s=200ms", kind, kind)
			}
			d, err := time.ParseDuration(dur)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad %s %q: %w", kind, dur, err)
			}
			r.Delay = d
		default:
			return nil, fmt.Errorf("faultinject: unknown kind %q (want error|delay|reset|crash|short|enospc|partition|drop|slow-stream)", kind)
		}
		r.Kind = kind
		for _, kv := range fields[2:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: bad matcher %q (want k=v)", kv)
			}
			var err error
			switch k {
			case "at":
				r.At, err = strconv.Atoi(v)
			case "count":
				r.Count, err = strconv.Atoi(v)
			case "worker":
				r.Worker, err = strconv.Atoi(v)
			case "rate":
				r.Rate, err = strconv.ParseFloat(v, 64)
			case "key", "endpoint":
				r.Key = v
			default:
				err = fmt.Errorf("unknown matcher %q", k)
			}
			if err != nil {
				return nil, fmt.Errorf("faultinject: rule %q: %v", line, err)
			}
		}
		rules = append(rules, r)
	}
	return New(seed, rules...), nil
}

// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is measured in integer picoseconds, which gives sub-bit resolution
// at 40 Gb/s (one byte takes 200 ps) while still allowing simulations of
// many simulated seconds inside an int64.
//
// Each engine is single-threaded and deterministic. Events scheduled at
// the same timestamp are ordered by a 64-bit key: At and AtArg draw keys
// from the engine's own counter (lane 0), preserving FIFO order of
// scheduling, while AtLane and AtArgLane draw from a caller-owned Lane.
// Lanes make the execution order a pure function of per-entity scheduling
// order rather than global scheduling order, which is what lets a sharded
// simulation (several engines advancing in lockstep windows) replay the
// exact event order of a serial run.
package sim

import (
	"fmt"
	"math"
)

// Time is a simulation timestamp or duration in picoseconds.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds returns the time as a floating point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns the time as a floating point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds returns the time as a floating point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.3gns", t.Nanoseconds())
	case t < Millisecond:
		return fmt.Sprintf("%.4gus", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.4gms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4gs", t.Seconds())
	}
}

// Event is a callback scheduled to run at a point in simulated time.
type Event func(now Time)

// ArgEvent is a callback that receives scheduling-time arguments. Used
// with AtArg and a pre-bound function value it lets hot paths schedule
// events without allocating a closure per event.
type ArgEvent func(now Time, arg any, n int64)

// laneShift splits an ordering key into a lane ID (high 20 bits) and a
// per-lane sequence number (low 44 bits). Lane 0 is the engine's own
// counter; 2^44 events per lane is out of reach for any realistic run.
const laneShift = 44

// maxLaneID bounds lane identifiers to the 20 high bits of a key.
const maxLaneID = 1<<(64-laneShift) - 1

// Lane is an independent source of event-ordering keys. Two events at
// the same timestamp execute in ascending key order, so events drawn
// from one lane keep their scheduling order relative to each other, and
// events from distinct lanes interleave by (lane ID, per-lane order) —
// independent of which engine they were pushed onto or when. A Lane is
// owned by a single scheduling thread; it is not safe for concurrent use.
type Lane struct {
	next uint64
}

// NewLane returns a lane with the given ID. Keys from lane id sort after
// every key from lanes with smaller IDs at the same timestamp; lane 0 is
// reserved for the engine's internal counter (At/AtArg).
func NewLane(id uint64) Lane {
	if id == 0 || id > maxLaneID {
		panic(fmt.Sprintf("sim: lane ID %d out of range [1, %d]", id, uint64(maxLaneID)))
	}
	return Lane{next: id << laneShift}
}

// NextKey returns the lane's next ordering key and advances it.
func (l *Lane) NextKey() uint64 {
	k := l.next
	l.next++
	return k
}

// item is a scheduled event's place in the queue: its (at, key) order
// and the slab slot holding what it runs. It holds no pointers, so the
// garbage collector never scans the queue, and a sift moves 24 bytes.
type item struct {
	at   Time
	key  uint64 // tie-break for equal timestamps: (lane, per-lane seq)
	slot uint32
}

// payload is what a scheduled event runs. Payloads live in the engine's
// slab at their item's slot. A free slot holds no references; its n
// links the free list (next free slot + 1, 0 at the end).
type payload struct {
	fn  ArgEvent
	arg any
	n   int64
}

// execEvent adapts a plain Event (carried in arg) to the ArgEvent form.
func execEvent(now Time, arg any, _ int64) { arg.(Event)(now) }

// eventQueue is a binary min-heap of items ordered by (at, key). It is
// hand-rolled rather than built on container/heap so that push and pop
// move item values directly instead of boxing them through interface{}.
// Any heap over the strict (at, key) order runs events in the same
// order; with 24-byte items a 4-ary layout measured slower at every
// depth of BenchmarkScheduleStep, so the heap is binary.
type eventQueue []item

// before reports whether a sorts ahead of b.
func (a item) before(b item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// push inserts it and restores the heap invariant. Sift-up walks a hole
// up from the end, moving displaced parents into it, and writes the new
// item once at its final slot.
func (q *eventQueue) push(it item) {
	*q = append(*q, it)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !it.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = it
}

// pop removes and returns the minimum item. Sift-down moves the hole
// from the root toward the leaves, pulling the smaller child up at each
// level, and places the displaced last element once at the end.
func (q *eventQueue) pop() item {
	h := *q
	top := h[0]
	n := len(h) - 1
	moved := h[n]
	h = h[:n]
	*q = h
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(moved) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = moved
	}
	return top
}

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now       Time
	seq       uint64
	queue     eventQueue
	slab      []payload // grown on demand, so its length is the peak depth
	free      uint32    // first free slab slot + 1; 0 when none is free
	processed uint64
	stopped   bool
	lastAt    Time

	// The cut: the executing event's (at, key), or when idle the bound
	// of the last run call. See Cut.
	cutAt  Time
	cutKey uint64
}

// defaultQueueCap pre-sizes the event queue so steady-state simulations
// reach their working depth without repeated growth copies. Only the
// queue is pre-sized: the payload slab grows with the depth actually
// reached, which keeps engine construction small.
const defaultQueueCap = 4096

// New returns a new simulation engine starting at time zero.
func New() *Engine { return NewWithCapacity(defaultQueueCap) }

// NewWithCapacity returns a new engine whose event queue is pre-sized
// for n pending events. Use it when the expected queue depth is known
// (e.g. tiny test engines, or very large fabrics).
func NewWithCapacity(n int) *Engine {
	return &Engine{queue: make(eventQueue, 0, n)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// PeakPending returns the most events the engine has ever held pending
// at once. A payload slot is freed as its event starts, and the slab
// grows only when every slot is taken, so the slab's length is that
// high-water mark at no cost to the event loop.
func (e *Engine) PeakPending() int { return len(e.slab) }

// NextAt returns the timestamp of the earliest pending event, or false
// when the queue is empty.
func (e *Engine) NextAt() (Time, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// Cut returns how far the engine has run in (at, key) order. While an
// event executes it is that event's (at, key). When idle it is the
// bound of the last run call: (end, 0) after RunBefore(end) or
// AdvanceTo(end), (deadline, MaxUint64) after RunUntil(deadline),
// (MaxInt64, MaxUint64) after Run drains the queue, and the last
// executed event after Stop. An event keyed (at, key) has run, or
// would have run had it been scheduled, exactly when (at, key) <= Cut.
// State changes applied lazily from pre-keyed entries, such as the
// fabric's credit returns, use it to tell which entries are due.
func (e *Engine) Cut() (Time, uint64) { return e.cutAt, e.cutKey }

// schedule queues fn(at, arg, n) under ordering key key. Scheduling in
// the past (before Now) panics: it indicates a model bug that would
// silently corrupt causality.
func (e *Engine) schedule(at Time, key uint64, fn ArgEvent, arg any, n int64) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	var slot uint32
	if f := e.free; f != 0 {
		slot = f - 1
		e.free = uint32(e.slab[slot].n)
		e.slab[slot] = payload{fn: fn, arg: arg, n: n}
	} else {
		slot = uint32(len(e.slab))
		e.slab = append(e.slab, payload{fn: fn, arg: arg, n: n})
	}
	e.queue.push(item{at: at, key: key, slot: slot})
}

// At schedules fn to run at absolute time at, ordered on the engine's
// own lane (lane 0): FIFO among all At/AtArg events at the same
// timestamp, and ahead of any Lane-keyed event there. Scheduling in the
// past (before Now) panics: it indicates a model bug that would silently
// corrupt causality.
func (e *Engine) At(at Time, fn Event) {
	e.seq++
	// A func value is pointer-shaped, so carrying it in arg does not box.
	e.schedule(at, e.seq, execEvent, fn, 0)
}

// AtArg schedules fn(at, arg, n) at absolute time at, on the engine's
// lane 0 like At. With a pre-bound fn (stored once, not a fresh closure)
// and a pointer-shaped arg this schedules without allocating. The same
// past-scheduling rule as At applies.
func (e *Engine) AtArg(at Time, fn ArgEvent, arg any, n int64) {
	e.seq++
	e.schedule(at, e.seq, fn, arg, n)
}

// AtLane schedules fn at absolute time at, drawing its ordering key from
// l instead of the engine counter.
func (e *Engine) AtLane(at Time, l *Lane, fn Event) {
	e.schedule(at, l.NextKey(), execEvent, fn, 0)
}

// AtArgLane schedules fn(at, arg, n) at absolute time at, drawing its
// ordering key from l instead of the engine counter. Zero-alloc like
// AtArg.
func (e *Engine) AtArgLane(at Time, l *Lane, fn ArgEvent, arg any, n int64) {
	e.schedule(at, l.NextKey(), fn, arg, n)
}

// PushKeyed schedules fn(at, arg, n) with an explicit, caller-computed
// ordering key. The sharded fabric uses it at window barriers to drain
// staged cross-shard events: keys were drawn from the sender's Lane at
// staging time, so pushing the staged batches in any order reproduces
// the exact order a single engine would have executed them in.
func (e *Engine) PushKeyed(at Time, key uint64, fn ArgEvent, arg any, n int64) {
	e.schedule(at, key, fn, arg, n)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn Event) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// Stop makes Run and RunUntil return after the currently executing event.
// Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// step executes the earliest pending event. It reports false if the
// queue is empty. The event's slot is freed before it runs, so the
// events it schedules can reuse it.
func (e *Engine) step() bool {
	if len(e.queue) == 0 {
		return false
	}
	it := e.queue.pop()
	p := e.slab[it.slot]
	e.slab[it.slot] = payload{n: int64(e.free)}
	e.free = it.slot + 1
	e.now = it.at
	e.cutAt, e.cutKey = it.at, it.key
	e.processed++
	p.fn(e.now, p.arg, p.n)
	return true
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.step() {
	}
	e.lastAt = e.now
	if !e.stopped {
		e.cutAt, e.cutKey = math.MaxInt64, math.MaxUint64
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline stay queued.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped && len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.step()
	}
	e.lastAt = e.now
	if !e.stopped {
		e.now = max(e.now, deadline)
		e.cutAt, e.cutKey = deadline, math.MaxUint64
	}
}

// RunBefore executes events with timestamps strictly before end, then
// advances the clock to end. It is the window body of a conservative
// parallel simulation: a shard granted the window [Now, end) runs
// everything inside it and stops with its clock parked on the barrier.
func (e *Engine) RunBefore(end Time) {
	e.stopped = false
	for !e.stopped && len(e.queue) > 0 && e.queue[0].at < end {
		e.step()
	}
	e.lastAt = e.now
	if !e.stopped {
		e.now = max(e.now, end)
		e.cutAt, e.cutKey = end, 0
	}
}

// LastEventAt returns the clock value at the end of the most recent
// Run/RunUntil/RunBefore event loop: the timestamp of the last event
// that call executed, or the clock at entry when it executed none.
// Unlike Now it does not move when a run call parks the clock on a
// deadline with no event there, so a window's efficiency (simulated
// advance actually used vs granted) derives from LastEventAt minus the
// window start. Updated once per run call, not per event, so it costs
// nothing on the hot path.
func (e *Engine) LastEventAt() Time { return e.lastAt }

// AdvanceTo moves the clock forward to t without executing anything.
// It panics if that would rewind the clock or skip a pending event —
// both indicate a broken window computation in the caller.
func (e *Engine) AdvanceTo(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: AdvanceTo %v before now %v", t, e.now))
	}
	if at, ok := e.NextAt(); ok && at < t {
		panic(fmt.Sprintf("sim: AdvanceTo %v would skip event at %v", t, at))
	}
	e.now = t
	e.cutAt, e.cutKey = t, 0
}

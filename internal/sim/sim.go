// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is measured in integer picoseconds, which gives sub-bit resolution
// at 40 Gb/s (one byte takes 200 ps) while still allowing simulations of
// many simulated seconds inside an int64.
//
// Each engine is single-threaded and deterministic. Events scheduled at
// the same timestamp are ordered by a 64-bit key: At draws keys from the
// engine's own counter (lane 0), preserving FIFO order of scheduling,
// while AtLane and AtArgLane draw from a caller-owned Lane.
// Lanes make the execution order a pure function of per-entity scheduling
// order rather than global scheduling order, which is what lets a sharded
// simulation (several engines advancing in lockstep windows) replay the
// exact event order of a serial run.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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
// with AtArgLane and a pre-bound function value it lets hot paths
// schedule events without allocating a closure per event.
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
// reserved for the engine's internal counter (At).
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

// grow doubles a full slice's capacity before an append: the arrays it
// leaves behind as garbage then add up to at most about the final
// array, where append's own growth, about 1.25x at these sizes, leaves
// about four times it. A slice with room is returned unchanged.
func grow[S ~[]E, E any](s S) S {
	if len(s) < cap(s) {
		return s
	}
	return slices.Grow(s, len(s))
}

// execEvent adapts a plain Event (carried in arg) to the ArgEvent form.
func execEvent(now Time, arg any, _ int64) { arg.(Event)(now) }

// eventQueue is a binary min-heap of items ordered by (at, key): the
// calendar's tier for the events its ring does not take. It is
// hand-rolled rather than built on container/heap so that push and pop
// move item values directly instead of boxing them through interface{}.
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
	*q = append(grow(*q), it)
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

// node is a ring event's (at, key) and the link to the next event of its
// bucket. Nodes sit in an array parallel to the slab, at the event's
// slot, and hold no pointers.
type node struct {
	at   Time
	key  uint64
	next uint32 // the bucket's next slot + 1; 0 at its tail
}

// bucket is one ring bucket: a list of events sorted by (at, key),
// linked through their nodes. head and tail are slots + 1; 0 when empty.
type bucket struct{ head, tail uint32 }

// Calendar geometry. The ring has a power-of-two number of buckets, at
// least one bitmap word's worth, each 1<<shift ps wide.
const (
	minRing      = 64
	maxRing      = 1 << 20
	defaultShift = 10 // 1.024 ns, until the engine has measured its gap
	maxShift     = 40 // 1.1 s

	// walkLimit bounds an insert's walk from a bucket's head. An event
	// that sorts neither first, last nor within this many steps of the
	// head goes to the heap instead, so a large same-timestamp group
	// costs no more per insert than the heap does.
	walkLimit = 8

	// A re-derivation needs this many pops since the last one to trust
	// the measured gap, and one happens at least every resizeEvery pops
	// (or four times the depth, if more).
	minGapSample = 256
	resizeEvery  = 1 << 15
)

// Engine is a discrete-event simulator. The zero value is ready to use.
//
// Pending events sit in a calendar queue (Brown, "Calendar Queues",
// CACM 31(10), 1988). A ring of buckets, each a sorted list, holds the
// near future; a binary heap holds what the ring does not take: events
// past the ring's horizon, and events that would land deep inside a
// crowded bucket. The next event is the earlier of the ring's first and
// the heap's top, so the (at, key) order is exact for any geometry; the
// geometry only sets the speed. It is re-derived from the engine's own
// measurements: buckets about three mean gaps between popped events
// wide, and about as many buckets as events pending.
type Engine struct {
	now       Time
	seq       uint64
	slab      []payload // grown on demand, so its length is the peak depth
	nodes     []node    // parallel to slab
	free      uint32    // first free slab slot + 1; 0 when none is free
	processed uint64
	stopped   bool
	lastAt    Time

	// The cut: the executing event's (at, key), or when idle the bound
	// of the last run call. See Cut.
	cutAt  Time
	cutKey uint64

	// The calendar. Every ring event's bucket number (at >> shift) lies
	// in [now>>shift, now>>shift + len(ring)), so each bucket holds one
	// bucket number's events, and none lies below cur.
	ring   []bucket
	used   []uint64 // bit i set when ring[i] is non-empty
	shift  uint
	cur    int64
	inRing int
	heap   eventQueue

	// Sizing: the geometry is re-derived when the depth leaves [lo, hi)
	// or processed reaches resizeAt. The gap sample runs from gapAt, when
	// processed was gapFrom.
	lo, hi   int
	resizeAt uint64
	gapAt    Time
	gapFrom  uint64
}

// New returns a new simulation engine starting at time zero. It
// allocates nothing else: the ring, the heap and the slab grow on demand.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.inRing + len(e.heap) }

// PeakPending returns the most events the engine has ever held pending
// at once. A payload slot is freed as its event starts, and the slab
// grows only when every slot is taken, so the slab's length is that
// high-water mark at no cost to the event loop.
func (e *Engine) PeakPending() int { return len(e.slab) }

// NextAt returns the timestamp of the earliest pending event, or false
// when the queue is empty.
func (e *Engine) NextAt() (Time, bool) {
	it, _, ok := e.head()
	return it.at, ok
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
		e.slab = append(grow(e.slab), payload{fn: fn, arg: arg, n: n})
		e.nodes = append(grow(e.nodes), node{})
	}
	if e.Pending() >= e.hi {
		e.resize()
	}
	e.insert(at, key, slot)
}

// insert files the event at slot under (at, key): into its ring bucket
// when it lies within the horizon and sorts first, last, or within
// walkLimit steps of the bucket's head, and into the heap otherwise.
func (e *Engine) insert(at Time, key uint64, slot uint32) {
	vb := int64(at >> e.shift)
	if vb-int64(e.now>>e.shift) >= int64(len(e.ring)) {
		e.heap.push(item{at: at, key: key, slot: slot})
		return
	}
	i := int(vb) & (len(e.ring) - 1)
	b := &e.ring[i]
	s := slot + 1
	nd := &e.nodes[slot]
	nd.at, nd.key, nd.next = at, key, 0
	switch {
	case b.head == 0:
		b.head, b.tail = s, s
		e.used[i>>6] |= 1 << (i & 63)
	case sortsAfter(at, key, &e.nodes[b.tail-1]):
		e.nodes[b.tail-1].next = s
		b.tail = s
	case !sortsAfter(at, key, &e.nodes[b.head-1]):
		nd.next = b.head
		b.head = s
	default:
		// The event sorts strictly between head and tail, so the walk
		// meets a successor before it runs off the list.
		p := &e.nodes[b.head-1]
		for k := 0; ; k++ {
			if k == walkLimit {
				e.heap.push(item{at: at, key: key, slot: slot})
				return
			}
			if !sortsAfter(at, key, &e.nodes[p.next-1]) {
				nd.next = p.next
				p.next = s
				break
			}
			p = &e.nodes[p.next-1]
		}
	}
	e.cur = min(e.cur, vb)
	e.inRing++
}

// sortsAfter reports whether (at, key) sorts after n's. Keys are unique
// per pending event, so no two compare equal.
func sortsAfter(at Time, key uint64, n *node) bool {
	return at > n.at || at == n.at && key > n.key
}

// head returns the earliest pending event and the ring bucket holding
// it, or -1 when it is the heap's top. ok is false when nothing is
// pending.
func (e *Engine) head() (it item, b int, ok bool) {
	if e.inRing > 0 {
		b = e.firstBucket()
		s := e.ring[b].head - 1
		nd := &e.nodes[s]
		it = item{at: nd.at, key: nd.key, slot: s}
		if len(e.heap) == 0 || it.before(e.heap[0]) {
			return it, b, true
		}
	}
	if len(e.heap) == 0 {
		return item{}, -1, false
	}
	return e.heap[0], -1, true
}

// firstBucket returns the index of the earliest non-empty ring bucket,
// moving cur up to its bucket number. The ring must hold an event.
func (e *Engine) firstBucket() int {
	e.cur = max(e.cur, int64(e.now>>e.shift))
	mask := len(e.ring) - 1
	i := int(e.cur) & mask
	w := i >> 6
	if ahead := e.used[w] >> (i & 63); ahead != 0 {
		d := bits.TrailingZeros64(ahead)
		e.cur += int64(d)
		return i + d
	}
	// Scan the following words, wrapping round to the low bits of w.
	for k := 1; ; k++ {
		ww := (w + k) & (len(e.used) - 1)
		if u := e.used[ww]; u != 0 {
			j := ww<<6 + bits.TrailingZeros64(u)
			e.cur += int64((j - i) & mask)
			return j
		}
	}
}

// resize re-derives the calendar's geometry from the engine's own
// measurements, and refiles the ring if it changed. The bucket width is
// Brown's: three mean gaps between the events popped since the last
// re-derivation, rounded to a power of two. The ring has a bucket per
// pending event, rounded up to a power of two.
func (e *Engine) resize() {
	depth := e.Pending()
	shift := e.shift
	if e.ring == nil {
		shift = defaultShift
	}
	if pops := e.processed - e.gapFrom; pops >= minGapSample {
		width := 3 * uint64(e.now-e.gapAt) / pops
		shift = 0
		if width > 0 {
			shift = uint(bits.Len64(width) - 1)
			if width >= 3<<shift>>1 { // nearer the next power of two
				shift++
			}
		}
		shift = min(shift, maxShift)
		e.gapAt, e.gapFrom = e.now, e.processed
	}
	nb := minRing
	for nb < depth && nb < maxRing {
		nb <<= 1
	}
	if shift != e.shift || nb != len(e.ring) {
		e.rebuild(shift, nb)
	}
	e.lo, e.hi = depth/2, 2*max(depth, minRing/2)
	e.resizeAt = e.processed + uint64(max(resizeEvery, 4*depth))
}

// rebuild refiles every ring event under a new geometry. The ring's
// lists are chained, in (at, key) order, into one; refiled in that
// order, each event lands at its new bucket's tail, or in the heap once
// they pass the new horizon. Heap events stay where they are.
func (e *Engine) rebuild(shift uint, nb int) {
	var first, last uint32
	if e.inRing > 0 {
		mask := len(e.ring) - 1
		start := int(max(e.cur, int64(e.now>>e.shift)))
		for k := range e.ring {
			b := &e.ring[(start+k)&mask]
			if b.head == 0 {
				continue
			}
			if first == 0 {
				first = b.head
			} else {
				e.nodes[last-1].next = b.head
			}
			last = b.tail
			*b = bucket{}
		}
	}
	clear(e.used)
	if nb > cap(e.ring) {
		e.ring = make([]bucket, nb)
		e.used = make([]uint64, nb/64)
	} else {
		e.ring, e.used = e.ring[:nb], e.used[:nb/64]
	}
	e.shift, e.inRing = shift, 0
	e.cur = int64(e.now >> shift)
	for s := first; s != 0; {
		nd := &e.nodes[s-1]
		next := nd.next
		e.insert(nd.at, nd.key, s-1)
		s = next
	}
}

// At schedules fn to run at absolute time at, ordered on the engine's
// own lane (lane 0): FIFO among all At events at the same timestamp, and ahead of any Lane-keyed event there. Scheduling in the
// past (before Now) panics: it indicates a model bug that would silently
// corrupt causality.
func (e *Engine) At(at Time, fn Event) {
	e.seq++
	// A func value is pointer-shaped, so carrying it in arg does not box.
	e.schedule(at, e.seq, execEvent, fn, 0)
}

// AtLane schedules fn at absolute time at, drawing its ordering key from
// l instead of the engine counter.
func (e *Engine) AtLane(at Time, l *Lane, fn Event) {
	e.schedule(at, l.NextKey(), execEvent, fn, 0)
}

// AtArgLane schedules fn(at, arg, n) at absolute time at, drawing its
// ordering key from l instead of the engine counter. With a pre-bound fn
// (stored once, not a fresh closure) and a pointer-shaped arg this
// schedules without allocating. The same past-scheduling rule as At
// applies.
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
// queue is empty.
func (e *Engine) step() bool { return e.stepThrough(math.MaxInt64) }

// stepThrough executes the earliest pending event if it is due at or
// before last, and reports whether it did. The event's slot is freed
// before it runs, so the events it schedules can reuse it.
func (e *Engine) stepThrough(last Time) bool {
	it, b, ok := e.head()
	if !ok || it.at > last {
		return false
	}
	if b >= 0 {
		bk := &e.ring[b]
		bk.head = e.nodes[it.slot].next
		if bk.head == 0 {
			bk.tail = 0
			e.used[b>>6] &^= 1 << (b & 63)
		}
		e.inRing--
	} else {
		e.heap.pop()
	}
	p := e.slab[it.slot]
	e.slab[it.slot] = payload{n: int64(e.free)}
	e.free = it.slot + 1
	e.now = it.at
	e.cutAt, e.cutKey = it.at, it.key
	e.processed++
	if e.processed >= e.resizeAt || e.Pending() < e.lo {
		e.resize()
	}
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
	for !e.stopped && e.stepThrough(deadline) {
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
	// Every pending event is at or after Now, so none is due unless end
	// is past it, and then end-1 cannot wrap.
	for !e.stopped && end > e.now && e.stepThrough(end-1) {
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

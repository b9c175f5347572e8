package sim

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// FuzzEngineOrder drives an engine with a sequence of operations decoded
// from the input and checks it against a sorted-slice oracle:
//
//   - pushes: At on lane 0, AtArgLane on one of eight lanes (optionally
//     spawning children when it runs), and batches of PushKeyed keys
//     drawn from those lanes and pushed in shuffled order;
//   - each push lands at now plus a delay of 0, 1–999 ps, whole ns up to
//     1 µs, 1–100 µs, or 1–100 ms;
//   - run calls: RunBefore, RunUntil, and AdvanceTo (to legal times);
//   - Stop, called from inside an event.
//
// Every executed event is checked against the oracle's minimum as it
// runs; after every operation Now, Pending, PeakPending, NextAt and Cut
// must match the oracle; and at the end the full executed (at, key)
// sequence must equal the oracle's. Since (at, key) is unique per event,
// any correct queue passes, whatever its internal layout.
func FuzzEngineOrder(f *testing.F) {
	for _, seed := range orderSeeds() {
		f.Add(seed)
	}
	f.Fuzz(checkEngineOrder)
}

// Operation codes of the FuzzEngineOrder input. Each is one byte
// (taken modulo opCount) followed by its operands.
const (
	opAt        = iota // delay
	opArgLane          // lane, delay, children
	opKeyed            // count, count × (lane, delay), shuffle seed
	opRunBefore        // delay
	opRunUntil         // delay
	opAdvanceTo        // delay, clipped to the earliest pending event
	opStop             // delay: a lane-0 event that calls Stop
	opCount
)

// Delay classes of an encoded delay: a class byte, then a 4-byte value.
const (
	delayZero = iota
	delayPs   // 1–999 ps
	delayNs   // whole ns, 1–1000
	delayUs   // 1–100 µs
	delayMs   // 1–100 ms
	delayClasses
)

// orderMaxEvents bounds the events one input may schedule, children
// included, so every input runs quickly.
const orderMaxEvents = 1 << 13

// orderReader decodes the fuzz input; an exhausted input reads as zeros.
type orderReader struct{ b []byte }

func (r *orderReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *orderReader) uint32() uint32 {
	var v [4]byte
	for i := range v {
		v[i] = r.byte()
	}
	return binary.LittleEndian.Uint32(v[:])
}

func (r *orderReader) delay() Time { return decodeDelay(r.byte(), r.uint32()) }

func decodeDelay(class byte, v uint32) Time {
	switch class % delayClasses {
	case delayPs:
		return Time(1 + v%999)
	case delayNs:
		return Time(1+v%1000) * Nanosecond
	case delayUs:
		return Microsecond + Time(v)%(99*Microsecond+1)
	case delayMs:
		return Millisecond + Time(v%(99*1000+1))*Microsecond
	}
	return 0
}

// orderEvent is one scheduled event as the oracle sees it.
type orderEvent struct {
	at       Time
	key      uint64
	lane     int // 0 for lane-0 events
	children int // events it schedules on its lane when it runs
	stop     bool
}

func (a orderEvent) before(b orderEvent) bool {
	return item{at: a.at, key: a.key}.before(item{at: b.at, key: b.key})
}

func checkEngineOrder(t *testing.T, data []byte) {
	r := &orderReader{b: data}
	e := New()
	var (
		lanes   [9]Lane // 1..8; index 0 unused
		evs     []orderEvent
		pending []int // ids of pending events, sorted by (at, key)
		ran     []orderEvent
		want    []orderEvent
		peak    int
		seq     uint64 // mirror of the engine's lane-0 counter
		now     Time
		cutAt   Time
		cutKey  uint64
		stopped bool
	)
	for i := 1; i < len(lanes); i++ {
		lanes[i] = NewLane(uint64(i))
	}
	track := func(ev orderEvent) int64 {
		id := len(evs)
		evs = append(evs, ev)
		i := sort.Search(len(pending), func(i int) bool { return ev.before(evs[pending[i]]) })
		pending = append(pending, 0)
		copy(pending[i+1:], pending[i:])
		pending[i] = id
		peak = max(peak, len(pending))
		return int64(id)
	}

	var fire ArgEvent
	fire = func(at Time, _ any, n int64) {
		ev := evs[n]
		gotAt, gotKey := e.Cut()
		ran = append(ran, orderEvent{at: gotAt, key: gotKey})
		if len(pending) == 0 {
			t.Fatalf("event (%v, %#x) ran with nothing pending in the oracle", ev.at, ev.key)
		}
		wantEv := evs[pending[0]]
		want = append(want, orderEvent{at: wantEv.at, key: wantEv.key})
		if int64(pending[0]) != n {
			t.Fatalf("ran (%v, %#x), oracle's earliest is (%v, %#x)", ev.at, ev.key, wantEv.at, wantEv.key)
		}
		pending = pending[1:]
		if at != ev.at || e.Now() != ev.at || gotAt != ev.at || gotKey != ev.key {
			t.Fatalf("event (%v, %#x): at %v, Now %v, Cut (%v, %#x)", ev.at, ev.key, at, e.Now(), gotAt, gotKey)
		}
		if e.Pending() != len(pending) {
			t.Fatalf("inside (%v, %#x): Pending = %d, oracle %d", ev.at, ev.key, e.Pending(), len(pending))
		}
		now, cutAt, cutKey = ev.at, ev.at, ev.key
		if ev.stop {
			e.Stop()
			stopped = true
		}
		x := ev.key ^ uint64(ev.at)
		for c := 0; c < ev.children && len(evs) < orderMaxEvents; c++ {
			x = x*6364136223846793005 + 1442695040888963407
			l := &lanes[ev.lane]
			child := orderEvent{at: at + decodeDelay(byte(x>>40)%delayUs, uint32(x>>8)), key: l.next, lane: ev.lane, children: ev.children - 1}
			e.AtArgLane(child.at, l, fire, nil, track(child))
		}
	}
	pushAt := func(d Time, stop bool) {
		seq++
		id := track(orderEvent{at: now + d, key: seq, stop: stop})
		e.At(now+d, func(at Time) { fire(at, nil, id) })
	}
	// runDone checks what a run call left: unless an event stopped it,
	// nothing it should have run is still pending, and the clock and cut
	// sit on its bound.
	runDone := func(due func(Time) bool, bound Time, key uint64) {
		if stopped {
			return
		}
		if len(pending) > 0 && due(evs[pending[0]].at) {
			t.Fatalf("run call returned with (%v, %#x) due", evs[pending[0]].at, evs[pending[0]].key)
		}
		now, cutAt, cutKey = max(now, bound), bound, key
	}

	for len(r.b) > 0 && len(evs) < orderMaxEvents {
		switch op := r.byte() % opCount; op {
		case opAt:
			pushAt(r.delay(), false)
		case opStop:
			pushAt(r.delay(), true)
		case opArgLane:
			lane := 1 + int(r.byte()%8)
			d := r.delay()
			children := int(r.byte() % 3)
			l := &lanes[lane]
			id := track(orderEvent{at: now + d, key: l.next, lane: lane, children: children})
			e.AtArgLane(now+d, l, fire, nil, id)
		case opKeyed:
			type staged struct {
				at  Time
				key uint64
			}
			batch := make([]staged, 1+r.byte()%8)
			for i := range batch {
				lane := 1 + int(r.byte()%8)
				batch[i] = staged{at: now + r.delay(), key: lanes[lane].NextKey()}
			}
			x := uint64(r.byte())
			for i := len(batch) - 1; i > 0; i-- { // Fisher–Yates over a 64-bit LCG
				x = x*6364136223846793005 + 1442695040888963407
				j := int(x>>33) % (i + 1)
				batch[i], batch[j] = batch[j], batch[i]
			}
			for _, s := range batch {
				e.PushKeyed(s.at, s.key, fire, nil, track(orderEvent{at: s.at, key: s.key}))
			}
		case opRunBefore:
			end := now + r.delay()
			stopped = false
			e.RunBefore(end)
			runDone(func(at Time) bool { return at < end }, end, 0)
		case opRunUntil:
			deadline := now + r.delay()
			stopped = false
			e.RunUntil(deadline)
			runDone(func(at Time) bool { return at <= deadline }, deadline, math.MaxUint64)
		case opAdvanceTo:
			to := now + r.delay()
			if len(pending) > 0 {
				to = min(to, evs[pending[0]].at)
			}
			e.AdvanceTo(to)
			now, cutAt, cutKey = to, to, 0
		}

		if e.Now() != now {
			t.Fatalf("Now = %v, oracle %v", e.Now(), now)
		}
		if e.Pending() != len(pending) {
			t.Fatalf("Pending = %d, oracle %d", e.Pending(), len(pending))
		}
		if e.PeakPending() != peak {
			t.Fatalf("PeakPending = %d, oracle %d", e.PeakPending(), peak)
		}
		gotAt, ok := e.NextAt()
		if wantOK := len(pending) > 0; ok != wantOK || (ok && gotAt != evs[pending[0]].at) {
			t.Fatalf("NextAt = (%v, %v), oracle has %d pending", gotAt, ok, len(pending))
		}
		if a, k := e.Cut(); a != cutAt || k != cutKey {
			t.Fatalf("Cut = (%v, %#x), oracle (%v, %#x)", a, k, cutAt, cutKey)
		}
	}

	if len(ran) != len(want) {
		t.Fatalf("executed %d events, oracle %d", len(ran), len(want))
	}
	for i := range ran {
		if ran[i].at != want[i].at || ran[i].key != want[i].key {
			t.Fatalf("event %d: executed (%v, %#x), oracle (%v, %#x)", i, ran[i].at, ran[i].key, want[i].at, want[i].key)
		}
	}
}

// orderInput encodes operations for checkEngineOrder.
type orderInput []byte

func (b *orderInput) delay(class byte, v uint32) {
	*b = append(*b, class)
	*b = binary.LittleEndian.AppendUint32(*b, v)
}

func (b *orderInput) op(code byte) { *b = append(*b, code) }

// orderSeeds is the seed corpus: the three queue shapes the fabric is
// known to produce, a Stop inside a window, a spread that makes the
// engine re-derive its geometry with many buckets in use, and events at
// both ends of the ring's horizon.
func orderSeeds() [][]byte {
	rng := rand.New(rand.NewSource(1))

	// A 512-event same-timestamp group pushed in shuffled lane order:
	// single lane pushes and shuffled PushKeyed batches interleave, so
	// most joins land mid-group.
	var group orderInput
	for n := 0; n < 512; {
		if rng.Intn(2) == 0 {
			group.op(opArgLane)
			group = append(group, byte(rng.Intn(8)))
			group.delay(delayZero, 0)
			group = append(group, 0)
			n++
			continue
		}
		group.op(opKeyed)
		m := 1 + rng.Intn(8)
		group = append(group, byte(m-1))
		for i := 0; i < m; i++ {
			group = append(group, byte(rng.Intn(8)))
			group.delay(delayZero, 0)
		}
		group = append(group, byte(rng.Intn(256)))
		n += m
	}
	group.op(opRunUntil)
	group.delay(delayZero, 0)

	// A lone event 100 ms out with nothing near: the queue must find it
	// across the whole empty span, in small windows and in one call.
	var lone orderInput
	lone.op(opAt)
	lone.delay(delayMs, 99_000)
	for i := 0; i < 4; i++ {
		lone.op(opRunBefore)
		lone.delay(delayUs, 10*uint32(Microsecond))
	}
	lone.op(opAdvanceTo)
	lone.delay(delayMs, 99_000)
	lone.op(opRunUntil)
	lone.delay(delayZero, 0)

	// A mid-run change from 1 ps gaps to 10 µs gaps: a dense
	// self-scheduling phase, then a sparse one.
	var shift orderInput
	for i := 0; i < 128; i++ {
		shift.op(opArgLane)
		shift = append(shift, byte(i))
		shift.delay(delayPs, 0)
		shift = append(shift, 1)
		shift.op(opRunBefore)
		shift.delay(delayPs, 1)
	}
	for i := 0; i < 128; i++ {
		shift.op(opArgLane)
		shift = append(shift, byte(i))
		shift.delay(delayUs, 9*uint32(Microsecond))
		shift = append(shift, 1)
		shift.op(opRunBefore)
		shift.delay(delayUs, 9*uint32(Microsecond))
	}
	shift.op(opRunUntil)
	shift.delay(delayMs, 0)

	// A Stop inside a window, then the rest of the window.
	var stop orderInput
	for i := 0; i < 16; i++ {
		stop.op(opArgLane)
		stop = append(stop, byte(i))
		stop.delay(delayNs, uint32(i))
		stop = append(stop, 2)
	}
	stop.op(opStop)
	stop.delay(delayNs, 4)
	stop.op(opRunBefore)
	stop.delay(delayUs, 0)
	stop.op(opRunBefore)
	stop.delay(delayUs, 0)

	// A spread over 1 µs that outgrows the first ring, and then drains
	// through it: the geometry is re-derived, with a measured width,
	// while many buckets hold events.
	var spread orderInput
	for i := 0; i < 300; i++ {
		spread.op(opArgLane)
		spread = append(spread, byte(i))
		spread.delay(delayNs, uint32(i*37))
		spread = append(spread, 2)
	}
	spread.op(opRunUntil)
	spread.delay(delayMs, 0)

	// Events at both ends of a fresh engine's ring, 64 buckets of
	// 1.024 ns: one in its last bucket, pushed first, and one near now.
	var edge orderInput
	edge.op(opAt)
	edge.delay(delayNs, 64)
	edge.op(opAt)
	edge.delay(delayNs, 1)
	edge.op(opRunUntil)
	edge.delay(delayUs, 0)

	return [][]byte{group, lone, shift, stop, spread, edge}
}

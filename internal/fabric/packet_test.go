package fabric

import (
	"bytes"
	"math/bits"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// TestFIFO checks the ring's FIFO order across wrap-around and across
// growth while wrapped, drain on a wrapped ring, and that a queue that
// stays short keeps a short array.
func TestFIFO(t *testing.T) {
	var q fifo[int]
	if !q.empty() || q.len() != 0 {
		t.Fatal("new queue not empty")
	}
	next, want := 0, 0 // next value to push, next value to pop
	push := func(k int) {
		for range k {
			q.push(next)
			next++
		}
	}
	pop := func(k int) {
		t.Helper()
		for range k {
			if got := *q.peek(); got != want {
				t.Fatalf("peek = %d, want %d", got, want)
			}
			if got := q.pop(); got != want {
				t.Fatalf("pop = %d, want %d", got, want)
			}
			want++
		}
	}

	// Fill four slots, then wrap: pop two and push two more, so the live
	// items run from slot 2 round to slot 1.
	push(4)
	pop(2)
	push(2)
	if q.head != 2 || cap(q.items) != 4 || q.len() != 4 {
		t.Fatalf("wrapped ring: head %d, %d of %d slots, want head 2, 4 of 4", q.head, q.len(), cap(q.items))
	}
	// A push to the full, wrapped ring grows it; order survives.
	push(1)
	if cap(q.items) != 8 || q.head != 0 {
		t.Fatalf("grown ring: head %d of %d slots, want head 0 of 8", q.head, cap(q.items))
	}
	pop(3)
	// Wrap the grown ring and drain it there.
	push(5)
	if q.head+uint32(q.len()) <= uint32(cap(q.items)) {
		t.Fatalf("ring at head %d with %d of %d slots does not wrap", q.head, q.len(), cap(q.items))
	}
	rest := q.drain()
	if wantRest := []int{5, 6, 7, 8, 9, 10, 11}; !slices.Equal(rest, wantRest) {
		t.Fatalf("drain = %v, want %v", rest, wantRest)
	}
	want = next
	if !q.empty() || q.len() != 0 {
		t.Fatal("drained queue not empty")
	}

	// A queue whose depth stays within 1–3 keeps at most four slots,
	// however long it runs.
	var short fifo[int]
	short.push(0)
	in, out := 1, 0
	for i := range 10000 {
		if i%4 < 2 {
			short.push(in)
			in++
		} else {
			if got := short.pop(); got != out {
				t.Fatalf("short queue pop = %d, want %d", got, out)
			}
			out++
		}
		if c := cap(short.items); c > 4 {
			t.Fatalf("step %d: depth %d holds %d slots, want at most 4", i, short.len(), c)
		}
	}
}

// FuzzFIFO runs push, pop, peek and drain scripts against a plain slice
// and checks, after every operation, the order, the length, that the
// array is the peak depth rounded up to a power of two, and that no slot
// outside the live range keeps a value.
func FuzzFIFO(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 1, 2, 0, 3})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 2, 1, 3, 0})
	f.Add(bytes.Repeat([]byte{0, 0, 1}, 40))
	f.Fuzz(func(t *testing.T, script []byte) {
		var q fifo[int]
		var model []int
		next, peak := 1, 0 // values start at 1, so 0 marks a cleared slot
		for i, op := range script {
			switch op % 4 {
			case 0:
				q.push(next)
				model = append(model, next)
				next++
				peak = max(peak, len(model))
			case 1:
				if len(model) == 0 {
					continue
				}
				if got := q.pop(); got != model[0] {
					t.Fatalf("op %d: pop = %d, want %d", i, got, model[0])
				}
				model = model[1:]
			case 2:
				if len(model) == 0 {
					continue
				}
				if got := *q.peek(); got != model[0] {
					t.Fatalf("op %d: peek = %d, want %d", i, got, model[0])
				}
			case 3:
				if got := q.drain(); !slices.Equal(got, model) {
					t.Fatalf("op %d: drain = %v, want %v", i, got, model)
				}
				model = model[:0]
			}
			if q.len() != len(model) || q.empty() != (len(model) == 0) {
				t.Fatalf("op %d: len %d empty %v, want %d", i, q.len(), q.empty(), len(model))
			}
			wantCap := 0
			if peak > 0 {
				wantCap = 1 << bits.Len(uint(peak-1))
			}
			if len(q.items) != wantCap {
				t.Fatalf("op %d: %d slots after peak depth %d, want %d", i, len(q.items), peak, wantCap)
			}
			for k := range q.items {
				live := (uint32(k)-q.head)&uint32(len(q.items)-1) < q.n
				if !live && q.items[k] != 0 {
					t.Fatalf("op %d: slot %d outside the live range holds %d", i, k, q.items[k])
				}
			}
		}
	})
}

// TestMsgWindow checks the completion window: a message completes on
// its last packet only, a message that lost a packet never completes
// even when its other packets arrive later, IDs bound for other shards
// leave gaps, the window spans only the oldest live message to the
// newest, a steady stream compacts in place without allocating, and
// long-lived messages move out of the window instead of pinning it.
func TestMsgWindow(t *testing.T) {
	w := msgWindow{shards: 2}
	live := func() int { return len(w.rem) - w.head }
	w.open(1, 2)
	w.open(4, 1) // 2 and 3 are another shard's
	w.open(5, 3)
	if got := live(); got != 5 {
		t.Fatalf("window spans %d messages, want 5 (IDs 1-5)", got)
	}
	if w.take(2) || w.take(99) {
		t.Fatal("an untracked message completed")
	}
	if w.take(1) || !w.take(1) {
		t.Fatal("message 1 (2 packets) did not complete on its second packet")
	}
	if got := live(); got != 2 || w.base != 4 {
		t.Fatalf("after message 1 the window spans %d from %d, want 2 from 4", got, w.base)
	}
	w.lose(5) // a packet of message 5 was dropped
	if w.take(5) || w.take(5) || w.take(5) {
		t.Fatal("a message that lost a packet completed")
	}
	if !w.take(4) {
		t.Fatal("message 4 (1 packet) did not complete")
	}
	if got := live(); got != 0 {
		t.Fatalf("window holds %d messages after every one completed or was lost, want 0", got)
	}

	// A steady stream: three messages in flight, every other ID another
	// shard's. Once the slice has grown, it compacts in place.
	w.open(10, 1)
	w.open(12, 1)
	w.open(14, 1)
	id := int64(16)
	step := func() {
		w.open(id, 1)
		if !w.take(id - 6) {
			t.Fatalf("message %d did not complete", id-6)
		}
		id += 2
	}
	for range 64 {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("steady stream allocates %v times a message, want 0", allocs)
	}
	if got := live(); got != 5 {
		t.Errorf("steady stream window spans %d messages, want 5", got)
	}
	if got := cap(w.rem); got > 16 {
		t.Errorf("steady stream grew the slice to %d slots for a 5-message window", got)
	}

	// Two long-lived messages among a stream of one-packet ones that
	// complete at once: the long ones move to far, and the slice stays
	// small however long the stream runs.
	w = msgWindow{shards: 1}
	w.open(1, 3)
	w.open(2, 2)
	id = 3
	short := func() {
		w.open(id, 1)
		if !w.take(id) {
			t.Fatalf("message %d did not complete", id)
		}
		id++
	}
	for range 10_000 {
		short()
	}
	if allocs := testing.AllocsPerRun(1000, short); allocs != 0 {
		t.Errorf("stream past long-lived messages allocates %v times a message, want 0", allocs)
	}
	if got := cap(w.rem); got > 16 {
		t.Errorf("two long-lived messages grew the slice to %d slots", got)
	}
	if len(w.far) != 2 {
		t.Fatalf("far holds %d messages, want the 2 long-lived ones", len(w.far))
	}
	if w.take(1) || w.take(1) || !w.take(1) {
		t.Error("long-lived message 1 (3 packets) did not complete on its third packet")
	}
	w.lose(2)
	if w.take(2) || w.take(2) {
		t.Error("long-lived message 2 completed after it lost a packet")
	}
	if len(w.far) != 0 || w.live != 0 {
		t.Errorf("after every message completed or was lost, far holds %d and the window %d live",
			len(w.far), w.live)
	}
}

// TestHotLayout pins the sizes the packet path is built around: a
// Packet fills one 64-byte cache line (and Go's 64-byte size class), a
// queue header is 32 bytes and a port record 64, so none can grow
// unnoticed. It also pins where a send reads a channel: every Chan
// field and every field of the link.Channel it holds that a send
// (pumpOut, takeCredits, StartTransmit, deliverAcross) reads lies in
// the record's first two cache lines, and the record is a whole number
// of lines, so those two stay whole in a line-aligned backing array.
func TestHotLayout(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 64 {
		t.Errorf("Packet is %d bytes, want 64", got)
	}
	if got := unsafe.Sizeof(fifo[*Packet]{}); got != 32 {
		t.Errorf("fifo header is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(port{}); got != 64 {
		t.Errorf("port is %d bytes, want 64", got)
	}

	const line = 64
	var c Chan
	if got := unsafe.Sizeof(c); got%line != 0 {
		t.Errorf("Chan is %d bytes, not a whole number of %d-byte lines", got, line)
	}
	type field struct {
		name      string
		off, size uintptr
	}
	send := []field{
		{"credits", unsafe.Offsetof(c.credits), unsafe.Sizeof(c.credits)},
		{"srcRT", unsafe.Offsetof(c.srcRT), unsafe.Sizeof(c.srcRT)},
		{"dstRT", unsafe.Offsetof(c.dstRT), unsafe.Sizeof(c.dstRT)},
		{"srcLane", unsafe.Offsetof(c.srcLane), unsafe.Sizeof(c.srcLane)},
		{"idx", unsafe.Offsetof(c.idx), unsafe.Sizeof(c.idx)},
		{"sameShard", unsafe.Offsetof(c.sameShard), unsafe.Sizeof(c.sameShard)},
		{"toSwitch", unsafe.Offsetof(c.toSwitch), unsafe.Sizeof(c.toSwitch)},
	}
	lt := reflect.TypeOf(&c.L).Elem()
	for _, name := range []string{"state", "kbitTime", "reconfigUntil", "busyUntil",
		"busyBase", "curStart", "curEnd", "totalBytes", "totalPackets"} {
		f, ok := lt.FieldByName(name)
		if !ok {
			t.Fatalf("link.Channel has no field %s", name)
		}
		send = append(send, field{"L." + name, unsafe.Offsetof(c.L) + f.Offset, f.Type.Size()})
	}
	for _, f := range send {
		if f.off+f.size > 2*line {
			t.Errorf("Chan.%s at bytes [%d, %d) leaves the first two cache lines", f.name, f.off, f.off+f.size)
		}
	}
}

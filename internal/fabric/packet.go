package fabric

import (
	"epnet/internal/sim"
	"epnet/internal/telemetry"
)

// Packet is the unit of transfer in the simulator. A message stays whole
// in its source host's queue, and each of its packets is cut from it
// when that packet reaches the head of the queue (Host.pump), so a
// packet exists only while it is in the network or at a host's head.
//
// Packets are recycled through per-shard free lists once delivered or
// dropped: a *Packet passed to OnDeliver is valid only for the duration
// of the callback and must not be retained.
type Packet struct {
	ID    int64
	MsgID int64 // message this packet belongs to
	Src   int32 // source host
	Dst   int32 // destination host
	Size  int32 // bytes
	Hops  int32 // switch traversals

	// Inject is when the message this packet belongs to was offered at
	// the source host; packet latency is measured from this point, so it
	// includes source queueing (which is how a network that "fails to
	// keep up with the offered host load" becomes visible).
	Inject sim.Time

	// TailIn is the tail arrival time at the current hop; it constrains
	// when a cut-through switch may finish retransmitting the packet.
	TailIn sim.Time

	// ch is the index in Network.chanArr of the channel the packet is
	// currently crossing, or noChan before its first transmit; the
	// arrival event reads it to know where to return the credit. Keeping
	// it on the packet lets arrivals be scheduled through pre-bound
	// functions instead of a fresh closure per hop, and a 32-bit index
	// in place of a *Chan keeps the packet at 64 bytes: one cache line.
	ch int32

	// chEpoch snapshots ch's fail epoch at transmit time. Heap events
	// cannot be cancelled, so a channel failure instead bumps the
	// epoch: an arrival whose snapshot no longer matches was in flight
	// when the channel died and is dropped.
	chEpoch uint32

	// trace is the packet's hop log when it was hash-sampled by an
	// attached flow collector, nil otherwise — every tracing hook on
	// the hot path is behind this one pointer test. The trace rides the
	// packet across shard exchanges (the staged event's arg is the
	// packet), and ownership follows the packet: only the shard
	// currently executing the packet's events touches it.
	trace *telemetry.PacketTrace
}

// noChan is Packet.ch for a packet not yet transmitted.
const noChan = -1

// message is a message waiting in its source host's queue. Its packet
// IDs firstPkt … firstPkt+n−1 are reserved at injection; off is the
// offset of the next packet to cut.
type message struct {
	id, firstPkt int64
	dst          int
	size, off    int
	inject       sim.Time
}

// fifo is a FIFO ring: switch output queues hold packets, host queues
// hold messages and the traces waiting for them. items is a power-of-two
// ring (or nil) holding n live items from head on, wrapping around. A
// full ring doubles, starting from one slot, and never shrinks, so each
// queue's array is its peak depth rounded up to a power of two. The
// 32-bit head and count keep the header at 32 bytes.
type fifo[T any] struct {
	items []T
	head  uint32
	n     uint32
}

func (q *fifo[T]) empty() bool { return q.n == 0 }

func (q *fifo[T]) len() int { return int(q.n) }

func (q *fifo[T]) push(v T) {
	if int(q.n) == len(q.items) {
		q.grow()
	}
	q.items[(q.head+q.n)&uint32(len(q.items)-1)] = v
	q.n++
}

// grow doubles the ring, moving the live items to the front of the new
// array in FIFO order.
func (q *fifo[T]) grow() {
	items := make([]T, max(1, 2*len(q.items)))
	k := copy(items, q.items[q.head:])
	copy(items[k:], q.items[:q.head])
	q.items, q.head = items, 0
}

// peek returns the head item in place; it is valid until the next push
// or pop.
func (q *fifo[T]) peek() *T { return &q.items[q.head] }

func (q *fifo[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head = (q.head + 1) & uint32(len(q.items)-1)
	q.n--
	return v
}

// drain removes and returns all queued items.
func (q *fifo[T]) drain() []T {
	out := make([]T, 0, q.len())
	for !q.empty() {
		out = append(out, q.pop())
	}
	return out
}

// msgWindow counts the packets still due for the messages whose
// destination hosts one shard owns, for OnMessageDone. Message IDs are
// dense and increasing, so message base+i's count sits at rem[head+i].
// A zero is a message that completed, lost a packet, or is bound for
// another shard's hosts, so a shard's share of the slots is about one
// in shards. head skips leading zeros. A full slice makes room before
// it grows: while half of it lies before head, the live part moves to
// the front; while under a quarter of the shard's share of the window
// is live (a long-lived message pins a span of completed ones), the
// live counts in its older half move to far, a map, and head skips that
// half. So the slice grows only while it holds fewer than 8·shards
// slots per message in flight, and a steady stream of messages
// allocates nothing.
type msgWindow struct {
	rem    []int
	head   int
	base   int64         // message ID of rem[head]
	live   int           // nonzero counts in rem[head:]
	far    map[int64]int // counts of live messages below base
	shards int           // shards in the network
}

// open tracks message id with pkts packets to deliver. IDs increase
// from call to call.
func (w *msgWindow) open(id int64, pkts int) {
	if w.head == len(w.rem) { // empty: restart at id
		w.rem, w.head, w.base = w.rem[:0], 0, id
	}
	for gap := id - w.base - int64(len(w.rem)-w.head); gap > 0; gap-- {
		w.push(0)
	}
	w.push(pkts)
	w.live++
}

func (w *msgWindow) push(v int) {
	if len(w.rem) == cap(w.rem) {
		if span := len(w.rem) - w.head; 2*w.head < len(w.rem) && 4*w.shards*w.live <= span {
			w.spill((span + 1) / 2)
		}
		if 2*w.head >= len(w.rem) {
			w.rem = w.rem[:copy(w.rem, w.rem[w.head:])]
			w.head = 0
		}
	}
	w.rem = append(w.rem, v)
}

// spill moves the live counts of the window's n oldest messages to far.
func (w *msgWindow) spill(n int) {
	if w.far == nil {
		w.far = make(map[int64]int)
	}
	for i, r := range w.rem[w.head : w.head+n] {
		if r != 0 {
			w.far[w.base+int64(i)] = r
			w.live--
		}
	}
	w.head += n
	w.base += int64(n)
	w.trim()
}

// slot returns message id's count, or nil when id is outside the window.
func (w *msgWindow) slot(id int64) *int {
	if i := id - w.base; i >= 0 && i < int64(len(w.rem)-w.head) {
		return &w.rem[w.head+int(i)]
	}
	return nil
}

// take counts one delivered packet of message id and reports whether
// it was the message's last.
func (w *msgWindow) take(id int64) bool {
	if id < w.base {
		return w.takeFar(id)
	}
	r := w.slot(id)
	if r == nil || *r == 0 {
		return false // untracked, or it lost a packet
	}
	if *r--; *r > 0 {
		return false
	}
	w.live--
	w.trim()
	return true
}

// takeFar is take for a message below the window.
func (w *msgWindow) takeFar(id int64) bool {
	r, ok := w.far[id]
	if !ok {
		return false // completed, or it lost a packet
	}
	if r > 1 {
		w.far[id] = r - 1
		return false
	}
	delete(w.far, id)
	return true
}

// lose stops tracking message id, which lost a packet and can never
// complete.
func (w *msgWindow) lose(id int64) {
	if id < w.base {
		delete(w.far, id)
	} else if r := w.slot(id); r != nil && *r != 0 {
		*r = 0
		w.live--
		w.trim()
	}
}

// trim moves head past the leading zeros.
func (w *msgWindow) trim() {
	for w.head < len(w.rem) && w.rem[w.head] == 0 {
		w.head++
		w.base++
	}
}

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
	Src   int   // source host
	Dst   int   // destination host
	Size  int   // bytes

	// Inject is when the message this packet belongs to was offered at
	// the source host; packet latency is measured from this point, so it
	// includes source queueing (which is how a network that "fails to
	// keep up with the offered host load" becomes visible).
	Inject sim.Time

	// TailIn is the tail arrival time at the current hop; it constrains
	// when a cut-through switch may finish retransmitting the packet.
	TailIn sim.Time

	// Hops counts switch traversals.
	Hops int

	// ch is the channel the packet is currently crossing; the arrival
	// event reads it to know where to return the credit. Keeping it on
	// the packet lets arrivals be scheduled through pre-bound functions
	// instead of a fresh closure per hop.
	ch *Chan

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

// message is a message waiting in its source host's queue. Its packet
// IDs firstPkt … firstPkt+n−1 are reserved at injection; off is the
// offset of the next packet to cut.
type message struct {
	id, firstPkt int64
	dst          int
	size, off    int
	inject       sim.Time
}

// fifo is an allocation-friendly FIFO: switch output queues hold
// packets, host queues hold messages and the traces waiting for them.
// A queue that empties starts again at the front of its array, and one
// that stays busy moves its live items to the front once the popped
// prefix is past 64 items and half the array, so a queue that is short
// most of the time keeps a short array.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) empty() bool { return q.head >= len(q.items) }

func (q *fifo[T]) len() int { return len(q.items) - q.head }

func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }

// peek returns the head item in place; it is valid until the next push
// or pop.
func (q *fifo[T]) peek() *T { return &q.items[q.head] }

func (q *fifo[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	} else if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
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

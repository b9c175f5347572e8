package traffic

import "math/rand"

// Every generator gives each host (or client, or stream) its own seeded
// *rand.Rand. With math/rand's source that costs a 607-word register
// and 1,841 seeding steps per entity before the first draw, although at
// the paper's 5–25% loads most entities draw only a handful of values
// in a run. stream is a rand.Source64 whose output is bit-identical to
// rand.NewSource(seed) — the goldens depend on every draw — but which
// defers that register until it is needed: the first lazyDraws values
// are computed straight from the seed, and only the draw after them
// builds the register and replays the prefix. DESIGN.md ("Traffic RNG
// streams") explains the construction.

const (
	rngLen   = 607       // math/rand's lagged-Fibonacci register length
	rngTap   = 273       // and its tap
	int32max = 1<<31 - 1 // modulus of the seeding LCG
	seedMul  = 48271     // multiplier of the seeding LCG
	zeroSeed = 89482311  // math/rand's substitute for a seed ≡ 0
	rngMask  = 1<<63 - 1 // Int63 mask
	seedSkip = 20        // LCG steps math/rand discards before vec[0]
	maxPower = seedSkip + 3*rngLen
)

// lazyDraws is how many draws a stream serves without a register. It
// bounds the lazy prefix: a lazy draw costs six modular multiplies
// instead of one add, so heavy streams must leave it early, while the
// light per-host streams of low-load runs never reach it.
const lazyDraws = 16

var (
	// cooked is math/rand's rngCooked table, recovered at init.
	cooked [rngLen]int64
	// lazy[d] holds what draw d+1 of a fresh stream needs.
	lazy [lazyDraws]lazyDraw
)

// lazyDraw describes one draw of the lazy prefix. For d ≤ 273, draw d
// (1-based) returns vec[334-d] + vec[607-d], both still as seeding left
// them. Seeded element i is (p0<<40 ^ p1<<20 ^ p2) ^
// cooked[i] with pk = x0·48271^(21+3i+k) mod (2³¹−1), x0 the reduced
// seed; pow holds those six powers (feed element first) and cooked the
// two table entries.
type lazyDraw struct {
	pow    [6]uint64
	cooked [2]int64
}

func init() {
	recoverCooked()
	var pow [maxPower + 1]uint64
	pow[0] = 1
	for e := 1; e <= maxPower; e++ {
		pow[e] = mulmod(pow[e-1], seedMul)
	}
	for d := range lazy {
		feed, tap := rngLen-rngTap-1-d, rngLen-1-d
		ld := &lazy[d]
		for k := 0; k < 3; k++ {
			ld.pow[k] = pow[seedSkip+1+3*feed+k]
			ld.pow[3+k] = pow[seedSkip+1+3*tap+k]
		}
		ld.cooked = [2]int64{cooked[feed], cooked[tap]}
	}
}

// recoverCooked derives math/rand's cooked table from the first rngLen
// outputs of rand.NewSource(1) instead of copying it. After rngLen draws
// every register slot has been overwritten exactly once, by the output
// of the draw that fed it, so the outputs give the whole register; the
// draws are then undone newest first, which yields the register exactly
// as seeding left it. XOR with the uncooked seeding of 1 leaves the
// table. This is the only place the package calls rand.NewSource.
func recoverCooked() {
	src := rand.NewSource(1).(rand.Source64)
	var r register
	r.feed = rngLen - rngTap
	for d := 0; d < rngLen; d++ {
		r.step()
		r.vec[r.feed] = int64(src.Uint64())
	}
	// r.tap and r.feed are back at the slots the last draw used.
	for d := 0; d < rngLen; d++ {
		r.vec[r.feed] -= r.vec[r.tap]
		if r.tap++; r.tap == rngLen {
			r.tap = 0
		}
		if r.feed++; r.feed == rngLen {
			r.feed = 0
		}
	}
	var plain register
	plain.seed(1) // cooked is still all zero here
	for i := range cooked {
		cooked[i] = r.vec[i] ^ plain.vec[i]
	}
}

// mulmod returns a·b mod 2³¹−1 for a, b in [1, 2³¹−1). Since 2³¹ ≡ 1,
// folding the high bits onto the low ones twice reduces the product
// without a branch: the first fold leaves at most 2(2³¹−1), the second
// at most 2³¹−1, which would mean a·b ≡ 0 — impossible for a prime
// modulus and nonzero factors. (A data-dependent branch here costs a
// misprediction on half the draws of the lazy prefix.)
func mulmod(a, b uint64) uint64 {
	t := a * b
	t = t&int32max + t>>31
	return t&int32max + t>>31
}

// reduceSeed maps a seed to the LCG start value exactly as math/rand's
// rngSource.Seed does.
func reduceSeed(seed int64) uint64 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	return uint64(seed)
}

// register is math/rand's rngSource state, stepped the same way.
type register struct {
	tap, feed int
	vec       [rngLen]int64
}

// seed fills the register from the reduced seed x with math/rand's
// seeding loop.
func (r *register) seed(x uint64) {
	r.tap, r.feed = 0, rngLen-rngTap
	for i := 0; i < seedSkip; i++ {
		x = mulmod(x, seedMul)
	}
	for i := range r.vec {
		x = mulmod(x, seedMul)
		u := int64(x) << 40
		x = mulmod(x, seedMul)
		u ^= int64(x) << 20
		x = mulmod(x, seedMul)
		u ^= int64(x)
		r.vec[i] = u ^ cooked[i]
	}
}

// step moves tap and feed to the next draw's slots.
func (r *register) step() {
	if r.tap--; r.tap < 0 {
		r.tap += rngLen
	}
	if r.feed--; r.feed < 0 {
		r.feed += rngLen
	}
}

// next is rngSource.Uint64.
func (r *register) next() uint64 {
	r.step()
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// stream is the lazily seeded rand.Source64. Until reg is built it is
// the reduced seed and a draw count.
type stream struct {
	x   uint64    // reduced seed
	n   int       // lazy draws served
	reg *register // nil until draw lazyDraws+1
}

// newStream returns a *rand.Rand whose every method yields exactly what
// rand.New(rand.NewSource(seed)) would.
func newStream(seed int64) *rand.Rand {
	return rand.New(&stream{x: reduceSeed(seed)})
}

// Seed implements rand.Source.
func (s *stream) Seed(seed int64) { *s = stream{x: reduceSeed(seed)} }

// Int63 implements rand.Source.
func (s *stream) Int63() int64 {
	if r := s.reg; r != nil {
		return int64(r.next() & rngMask)
	}
	return int64(s.lazyNext() & rngMask)
}

// Uint64 implements rand.Source64.
func (s *stream) Uint64() uint64 {
	if r := s.reg; r != nil {
		return r.next()
	}
	return s.lazyNext()
}

// lazyNext serves a draw before the register exists, building it once
// the prefix is used up. The two seeded elements are written out rather
// than left to a helper the compiler would not inline.
func (s *stream) lazyNext() uint64 {
	if s.n == lazyDraws {
		return s.materialize()
	}
	d, x := &lazy[s.n], s.x
	s.n++
	feed := int64(mulmod(x, d.pow[0]))<<40 ^ int64(mulmod(x, d.pow[1]))<<20 ^
		int64(mulmod(x, d.pow[2])) ^ d.cooked[0]
	tap := int64(mulmod(x, d.pow[3]))<<40 ^ int64(mulmod(x, d.pow[4]))<<20 ^
		int64(mulmod(x, d.pow[5])) ^ d.cooked[1]
	return uint64(feed + tap)
}

// materialize builds the register, replays the lazy prefix on it and
// makes the next draw.
func (s *stream) materialize() uint64 {
	r := new(register)
	r.seed(s.x)
	for i := 0; i < s.n; i++ {
		r.next()
	}
	s.reg = r
	return r.next()
}

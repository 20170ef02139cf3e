package npb

// The NPB pseudo-random number generator: the linear congruential scheme
//
//	x_{k+1} = a · x_k  (mod 2^46)
//
// computed in exact 64-bit integer arithmetic, as NPB's randi8 variant
// (common/randi8.f, chosen with RAND = randi8 in make.def) does. A uint64
// product that wraps keeps its low 64 bits, so its low 46 bits are a·x
// mod 2^46 exactly. NPB's portable randlc/vranlc compute the same
// residue in double precision by splitting operands into 23-bit halves,
// so for x and a in [0, 2^46) the two produce the same state sequence bit
// for bit. The normalised output r46·x is also identical: x < 2^46 is an
// exact float64, and r46 = 2^-46 scales it exactly. All three kernels
// seed from this generator, and bit-compatibility with the reference
// implementations is what makes the published verification constants
// attainable.
//
// The float64 state and multiplier of Randlc, Vranlc and SkipAhead are
// NPB's API. Both must hold integers in [0, 2^46); InDomain checks that.
// Hot loops keep the state as an integer in a Stream.

const (
	r46    = 1.0 / (1 << 46)
	t46    = 1 << 46
	mask46 = t46 - 1
)

// DefaultSeed and DefaultMult are the seed/multiplier most NPB kernels use.
const (
	DefaultSeed = 314159265.0
	DefaultMult = 1220703125.0 // 5^13
)

// InDomain reports whether v is an integer in [0, 2^46), the range the
// state x and multiplier a of Randlc, Vranlc, SkipAhead and NewStream
// must lie in.
func InDomain(v float64) bool {
	return v >= 0 && v < t46 && v == float64(uint64(v))
}

// Stream is the generator's state and multiplier held as integers. The
// kernels' generation loops draw from it so that the state never goes
// through float64.
type Stream struct{ x, a uint64 }

// NewStream starts a stream at seed x with multiplier a. Both must be
// integers in [0, 2^46).
func NewStream(x, a float64) Stream { return Stream{uint64(x), uint64(a)} }

// Next advances the stream and returns the new state, an integer in
// [0, 2^46).
func (s *Stream) Next() uint64 {
	s.x = (s.a * s.x) & mask46
	return s.x
}

// Float64 advances the stream and returns the new state normalised to
// [0, 1), which is what Randlc returns.
func (s *Stream) Float64() float64 { return r46 * float64(s.Next()) }

// Randlc advances *x to the next element of the sequence (multiplier a) and
// returns the result normalised to [0, 1): (0, 1) for the odd seeds and
// multipliers NPB uses. x and a must be integers in [0, 2^46).
func Randlc(x *float64, a float64) float64 {
	s := NewStream(*x, a)
	v := s.Float64()
	*x = float64(s.x)
	return v
}

// Vranlc fills y[:n] with the next n sequence elements, advancing *x. It is
// the batch form the EP kernel uses for its 2^16-element batches. x and a
// must be integers in [0, 2^46).
func Vranlc(n int, x *float64, a float64, y []float64) {
	s := NewStream(*x, a)
	for i := range y[:n] {
		y[i] = s.Float64()
	}
	*x = float64(s.x)
}

// SkipAhead advances seed s by n steps of the multiplier-a sequence in
// O(log n) squarings — the binary algorithm the EP kernel inlines to give
// every batch an independent starting seed. s and a must be integers in
// [0, 2^46).
func SkipAhead(s, a float64, n int64) float64 {
	x, m := uint64(s), uint64(a)
	for n > 0 {
		if n&1 == 1 {
			x = (m * x) & mask46
		}
		m = (m * m) & mask46
		n >>= 1
	}
	return float64(x)
}

package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"gomp/omp"
)

// loops_steal and loops_ordered: one seeded, heavy-tailed per-iteration
// cost vector pushed through the dynamic-family loop schedules. Iteration
// i advances a 64-bit linear congruential generator cost[i] steps from a
// state derived from i, so its result has a closed form (lcgJump) and the
// oracle never runs the loop it checks.

const (
	loopTrip     = 160_000 // iterations of the summed loops
	loopMeanCost = 200     // generator steps per iteration, on average
	// The ordered loop visits every second element of the cost vector, so
	// it sees the hot zone in the same proportion as the summed loops do.
	orderedStride = 2
	orderedTrip   = loopTrip / orderedStride
	lcgMul        = 6364136223846793005
	lcgInc        = 1442695040888963407
	foldPrime     = 1099511628211
)

// burn is the loop body's work: steps dependent multiply-adds.
func burn(x uint64, steps int32) uint64 {
	for k := int32(0); k < steps; k++ {
		x = x*lcgMul + lcgInc
	}
	return x
}

// lcgJump is burn in O(log steps): the generator's closed-form advance.
func lcgJump(x uint64, steps int32) uint64 {
	accMul, accInc := uint64(1), uint64(0)
	mul, inc := uint64(lcgMul), uint64(lcgInc)
	for n := steps; n > 0; n >>= 1 {
		if n&1 == 1 {
			accMul *= mul
			accInc = accInc*mul + inc
		}
		inc *= mul + 1
		mul *= mul
	}
	return accMul*x + accInc
}

func iterState(salt uint64, i int64) uint64 { return salt ^ uint64(i)*0x9e3779b97f4a7c15 }

// padU64 keeps per-thread partial sums on separate cache lines.
type padU64 struct {
	v uint64
	_ [56]byte
}

// loopsInstance holds the cost vector and, per flavour, the two outputs of
// the last solve: the wrapping sum of loop one and the order-dependent
// fold (ordered workload) or wrapping sum (steal workload) of loop two.
type loopsInstance struct {
	ordered bool
	salt    uint64
	cost    []int32
	steps   float64 // Σ cost over both loops
	want    [2]uint64
	got     [nFlavours][2]uint64
}

// genLoops draws the cost vector: Pareto(α=1.5) step counts, capped, with
// a seeded hot zone of threefold cost so a block partition is imbalanced
// and the ranges must be rebalanced at run time. The vector is then scaled
// to a fixed total, so every seed asks for the same amount of work and
// only its placement differs.
func genLoops(seed uint64, ordered bool) *loopsInstance {
	r := rand.New(rand.NewPCG(seed, 0x6c6f6f7073)) // "loops"
	l := &loopsInstance{ordered: ordered, salt: r.Uint64(), cost: make([]int32, loopTrip)}
	raw := make([]float64, loopTrip)
	hot, sum := r.IntN(loopTrip*3/4), 0.0
	for i := range raw {
		raw[i] = math.Min(50/math.Pow(1-r.Float64(), 1/1.5), 20000)
		if i >= hot && i < hot+loopTrip/4 {
			raw[i] *= 3
		}
		sum += raw[i]
	}
	for i := range raw {
		l.cost[i] = max(1, int32(math.Round(raw[i]*loopMeanCost*loopTrip/sum)))
	}
	for i := int64(0); i < loopTrip; i++ {
		l.want[0] += lcgJump(iterState(l.salt, i), l.cost[i])
		l.steps += float64(l.cost[i])
	}
	if !ordered {
		l.want[1] = l.want[0]
		l.steps *= 2
		return l
	}
	for j := int64(0); j < orderedTrip; j++ {
		i := j * orderedStride
		l.want[1] = l.want[1]*foldPrime + lcgJump(iterState(l.salt, i), l.cost[i])
		l.steps += float64(l.cost[i])
	}
	return l
}

func (l *loopsInstance) iter(i int64) uint64 { return burn(iterState(l.salt, i), l.cost[i]) }

func (l *loopsInstance) solve(flavour, threads int) (float64, error) {
	out := &l.got[flavour]
	*out = [2]uint64{}
	start := omp.GetWtime()
	switch {
	case flavour == fSerial:
		l.serial(out)
	case flavour == fBaseline:
		l.baseline(out, threads)
	case l.ordered:
		out[0] = l.ompSum(loopTrip, threads, omp.Schedule(omp.Dynamic, 8, omp.Monotonic))
		out[1] = l.ompOrdered(threads)
	default:
		out[0] = l.ompSum(loopTrip, threads, omp.Schedule(omp.Dynamic, 8))
		out[1] = l.ompSum(loopTrip, threads, omp.Schedule(omp.Guided, 0))
	}
	return omp.GetWtime() - start, nil
}

// ompSum is `//omp parallel for reduction(+:sum) schedule(...)`.
func (l *loopsInstance) ompSum(trip int64, threads int, sched omp.Option) uint64 {
	parts := make([]padU64, threads)
	omp.ParallelFor(trip, func(t *omp.Thread, i int64) {
		parts[t.Tid].v += l.iter(i)
	}, omp.NumThreads(threads), sched)
	var sum uint64
	for i := range parts {
		sum += parts[i].v
	}
	return sum
}

// ompOrdered is `//omp parallel for ordered schedule(dynamic,8)` with the
// fold in the ordered region: short, but it must run in iteration order.
func (l *loopsInstance) ompOrdered(threads int) uint64 {
	var h uint64
	omp.ParallelFor(orderedTrip, func(t *omp.Thread, j int64) {
		v := l.iter(j * orderedStride)
		omp.Ordered(t, func() { h = h*foldPrime + v })
	}, omp.NumThreads(threads), omp.OrderedClause(), omp.Schedule(omp.Dynamic, 8))
	return h
}

func (l *loopsInstance) serial(out *[2]uint64) {
	for i := int64(0); i < loopTrip; i++ {
		out[0] += l.iter(i)
	}
	if l.ordered {
		for j := int64(0); j < orderedTrip; j++ {
			out[1] = out[1]*foldPrime + l.iter(j*orderedStride)
		}
		return
	}
	for i := int64(0); i < loopTrip; i++ {
		out[1] += l.iter(i)
	}
}

// baseline is the loop as a Go programmer writes it without the runtime:
// goroutines claiming chunks off one atomic counter. The ordered loop
// computes into a slice in parallel and folds it in order afterwards.
func (l *loopsInstance) baseline(out *[2]uint64, threads int) {
	out[0] = goChunks(loopTrip, 8, threads, func(i int64, acc *uint64) { *acc += l.iter(i) })
	if l.ordered {
		vals := make([]uint64, orderedTrip)
		goChunks(orderedTrip, 8, threads, func(j int64, _ *uint64) { vals[j] = l.iter(j * orderedStride) })
		for _, v := range vals {
			out[1] = out[1]*foldPrime + v
		}
		return
	}
	out[1] = goChunks(loopTrip, 64, threads, func(i int64, acc *uint64) { *acc += l.iter(i) })
}

// goChunks runs body over [0, trip) on `threads` goroutines that claim
// chunk iterations at a time from a shared counter, and returns the sum of
// their private accumulators.
func goChunks(trip, chunk int64, threads int, body func(i int64, acc *uint64)) uint64 {
	var next atomic.Int64
	var total atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var acc uint64
			for {
				lo := next.Add(chunk) - chunk
				if lo >= trip {
					break
				}
				for i, hi := lo, min(lo+chunk, trip); i < hi; i++ {
					body(i, &acc)
				}
			}
			total.Add(acc)
		}()
	}
	wg.Wait()
	return total.Load()
}

func (l *loopsInstance) verify(flavour int) error {
	if l.got[flavour] != l.want {
		return fmt.Errorf("%s loops: got %x, closed form gives %x", flavourNames[flavour], l.got[flavour], l.want)
	}
	return nil
}

// work: one multiply-add per generator step; the cost vector (4 bytes per
// iteration) is the only memory traffic.
func (l *loopsInstance) work() (ops, bytes float64) {
	second := int64(loopTrip)
	if l.ordered {
		second = orderedTrip
	}
	return 2 * l.steps, float64(4 * (loopTrip + second))
}

func (l *loopsInstance) close() {}

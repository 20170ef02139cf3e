// Package trace is the tools layer the paper names as its next step:
// "add support for profiling … Modifying the compiler to automatically
// instrument applications with the calls to [the Tracy] library, providing
// functionality similar to that of gprof" (Section VI).
//
// A Profiler installs an OMPT-style collector on the runtime
// (kmp.SetCollector): every team thread records events into its own
// ring, the one the flight recorder reads too, and the collector drains
// them in batches at region joins and explicit flushes. The profiler last
// started is the running one (Default): /debug/gomp, ReadHealth and the
// package-level ZoneAt read it, and a capture window reads its event
// stream beside it. The profiler aggregates the stream three ways at once,
// each with one rendering:
//
//   - a gprof-style flat profile per source region, as text with the
//     imbalance analysis appended (Report; Summaries and Analyses are
//     the rows),
//   - a runtime metrics registry — counters, gauges, histograms — read
//     as a MetricsSnapshot or as OpenMetrics exposition (Metrics,
//     WriteOpenMetrics),
//   - optionally a retained raw timeline exported as Chrome
//     trace-event JSON loadable in Perfetto (WithTimeline +
//     WriteTimeline), with work steals drawn as flow arrows.
//
// Zones can also be opened explicitly (Zone/ZoneAt) for
// application-level spans, the Tracy usage pattern; the compiler's
// -profile mode injects them automatically with real file:line.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gomp/internal/kmp"
)

// regionStats accumulates one source region's activity.
type regionStats struct {
	calls       int64
	total       time.Duration // summed region (or zone/task/loop) span time
	maxTeam     int
	barriers    int64
	barrierWait time.Duration
	loops       int64
	loopTime    time.Duration
	steals      int64 // loop-range + task steals attributed to this location
	tasks       int64 // completed task bodies spawned at this location
	taskTime    time.Duration
	depStalls   int64
	depReleases int64

	// perWorker splits this region's activity by emitting thread (gtid):
	// the raw material of the imbalance/blame analysis (analysis.go).
	// Busy time is loop participation plus task bodies — the span kinds
	// each thread reports for its own share of the region's work.
	perWorker map[int]*workerLoad
}

// workerLoad is one thread's share of a region's activity.
type workerLoad struct {
	busy    time.Duration // loop participation + task body time
	barWait time.Duration // explicit-barrier wait (incl. task drain)
}

func (st *regionStats) worker(gtid int) *workerLoad {
	if st.perWorker == nil {
		st.perWorker = make(map[int]*workerLoad)
	}
	w := st.perWorker[gtid]
	if w == nil {
		w = &workerLoad{}
		st.perWorker[gtid] = w
	}
	return w
}

// zoneSpan is one closed explicit zone retained for the timeline.
type zoneSpan struct {
	loc        kmp.Ident // Region holds the zone's name
	start, dur int64     // ns on the runtime's trace clock
	gtid       int
}

// Option configures a Profiler at construction.
type Option func(*Profiler)

// WithRingSize sets the per-thread event ring capacity the profiler asks
// for while it runs (rounded up to a power of two; rings never shrink
// below the flight recorder's size). Larger rings tolerate longer gaps
// between drains before events are dropped.
func WithRingSize(n int) Option { return func(p *Profiler) { p.ringSize = n } }

// WithTimeline retains up to capacity raw events (and closed zones) for
// export via WriteTimeline. capacity <= 0 selects a default of 1<<20
// events. Without this option the profiler aggregates only, keeping
// memory constant.
func WithTimeline(capacity int) Option {
	return func(p *Profiler) {
		if capacity <= 0 {
			capacity = 1 << 20
		}
		p.timelineCap = capacity
	}
}

// Profiler aggregates runtime events. Start makes it the running
// profiler, the one Default returns; Stop detaches it. Only one profiler
// runs at a time (the collector pointer is global, as an OMPT tool is);
// starting a second one supersedes the first.
type Profiler struct {
	ringSize    int
	timelineCap int

	col *kmp.Collector
	met Metrics

	mu           sync.Mutex
	tap          *Profiler                  // a capture window reading beside p (setTap)
	regions      map[kmp.Ident]*regionStats // keyed by location; named at render
	zones        map[kmp.Ident]*regionStats
	events       []kmp.TraceEvent // retained timeline (nil unless WithTimeline)
	zoneSpans    []zoneSpan
	timelineDrop int64 // events past timelineCap
	queueSteps   []queueStep
	lastDrops    uint64
}

// New returns an idle profiler.
func New(opts ...Option) *Profiler {
	p := &Profiler{
		regions: make(map[kmp.Ident]*regionStats),
		zones:   make(map[kmp.Ident]*regionStats),
	}
	for _, o := range opts {
		o(p)
	}
	p.col = kmp.NewCollector(p.ringSize)
	p.col.Sink = p.consume
	p.col.Drained = p.drained
	return p
}

// running is the profiler whose collector is installed: the one Default
// returns. runMu orders Start, Stop and a capture window's check for a
// running profiler, so running and the runtime's collector always change
// together.
var (
	runMu   sync.Mutex
	running atomic.Pointer[Profiler]
)

// Default returns the running profiler — the one last started, until it
// stops — or nil when none runs. Compiler-instrumented programs reach it
// through omp.Profile and omp.ZoneAt: generated code cannot import this
// package, and a process-wide profiler keeps each injected call a single
// expression.
func Default() *Profiler { return running.Load() }

// Start installs the profiler's collector as the runtime's active tool and
// makes p the running profiler, until p stops or another profiler starts.
func (p *Profiler) Start() {
	runMu.Lock()
	prev := running.Load()
	p.install()
	runMu.Unlock()
	if prev != nil && prev != p {
		// Close the superseded profiler's cursors: what its rings overwrite
		// from now on was not written for it, so it is not a drop.
		prev.Flush()
	}
}

func (p *Profiler) install() {
	running.Store(p)
	kmp.SetCollector(p.col)
}

// Stop detaches the profiler (if it is still the running one) and drains
// any buffered events.
func (p *Profiler) Stop() {
	runMu.Lock()
	if running.CompareAndSwap(p, nil) {
		kmp.SetCollector(nil)
	}
	runMu.Unlock()
	p.Flush()
}

// Flush drains every per-thread ring into the aggregates and returns
// the number of events folded in. The runtime also drains implicitly at
// every region join.
func (p *Profiler) Flush() int {
	n := p.col.Flush()
	d := p.col.Drops()
	p.mu.Lock()
	if d > p.lastDrops {
		p.met.RingDrops.Add(int64(d - p.lastDrops))
		if p.tap != nil {
			p.tap.met.RingDrops.Add(int64(d - p.lastDrops))
		}
		p.lastDrops = d
	}
	p.mu.Unlock()
	return n
}

// Metrics returns the profiler's live metrics registry.
func (p *Profiler) Metrics() *Metrics { return &p.met }

// stats returns m's row for loc, adding it on first use. Rows are keyed
// by the location itself, so folding an event formats nothing.
func stats(m map[kmp.Ident]*regionStats, loc kmp.Ident) *regionStats {
	st := m[loc]
	if st == nil {
		st = &regionStats{}
		m[loc] = st
	}
	return st
}

// consume folds one drained batch into the flat profile, the metrics
// registry and (when enabled) the retained timeline. Batches arrive
// under the collector's drain lock, one ring at a time.
func (p *Profiler) consume(batch []kmp.TraceEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ev := range batch {
		st := stats(p.regions, ev.Loc)
		switch ev.Kind {
		case kmp.TraceForkBegin:
			if ev.NThreads > st.maxTeam {
				st.maxTeam = ev.NThreads
			}
		case kmp.TraceForkEnd:
			st.calls++
			st.total += time.Duration(ev.Dur)
			if ev.NThreads > st.maxTeam {
				st.maxTeam = ev.NThreads
			}
			p.met.Forks.Add(1)
			p.met.RegionNs.Add(ev.Dur)
		case kmp.TraceBarrier:
			st.barriers++
			st.barrierWait += time.Duration(ev.Dur)
			st.worker(ev.Gtid).barWait += time.Duration(ev.Dur)
			p.met.Barriers.Add(1)
			p.met.BarrierWaitNs.Add(ev.Dur)
			p.met.BarrierWait.Observe(ev.Dur)
		case kmp.TraceLoopInit:
			st.loops++
			p.met.LoopInits.Add(1)
		case kmp.TraceLoopFini:
			st.loopTime += time.Duration(ev.Dur)
			st.worker(ev.Gtid).busy += time.Duration(ev.Dur)
			p.met.LoopNs.Add(ev.Dur)
		case kmp.TraceLoopSteal:
			st.steals++
			p.met.LoopSteals.Add(1)
			p.met.StolenIters.Add(ev.Arg1)
		case kmp.TraceTaskSpawn:
			p.met.TaskSpawns.Add(1)
			p.queueSteps = append(p.queueSteps, queueStep{ev.When, 1})
		case kmp.TraceTaskRun:
			st.tasks++
			st.taskTime += time.Duration(ev.Dur)
			st.worker(ev.Gtid).busy += time.Duration(ev.Dur)
			p.met.TaskRuns.Add(1)
			p.met.TaskNs.Add(ev.Dur)
			p.met.TaskRun.Observe(ev.Dur)
			p.queueSteps = append(p.queueSteps, queueStep{ev.When, -1})
		case kmp.TraceTaskSteal:
			st.steals++
			p.met.TaskSteals.Add(1)
		case kmp.TraceTaskgroup:
			p.met.Taskgroups.Add(1)
		case kmp.TraceTaskloop:
			p.met.Taskloops.Add(1)
		case kmp.TraceTaskDepStall:
			st.depStalls++
			p.met.DepStalls.Add(1)
		case kmp.TraceTaskDepRelease:
			st.depReleases += ev.Arg0
			p.met.DepReleases.Add(ev.Arg0)
		case kmp.TraceCancel:
			p.met.Cancels.Add(1)
		}
	}
	if p.timelineCap > 0 {
		room := p.timelineCap - len(p.events)
		if room > len(batch) {
			room = len(batch)
		}
		if room > 0 {
			p.events = append(p.events, batch[:room]...)
		}
		p.timelineDrop += int64(len(batch) - room)
	}
	if p.tap != nil {
		p.tap.consume(batch)
	}
}

// setTap flushes p, then makes w (nil for none) the profiler that p's
// drained batches, zone closes and ring drops are forwarded to, so w sees
// what p sees from now on without taking it from p.
func (p *Profiler) setTap(w *Profiler) {
	p.Flush()
	p.mu.Lock()
	p.tap = w
	p.mu.Unlock()
}

// queueStep is one move of the TaskQueue gauge: +1 at a spawn, -1 when the
// task starts to run.
type queueStep struct {
	when, delta int64
}

// drained moves the TaskQueue gauge through one Flush's spawns and runs in
// time order. Rings drain one at a time, so a worker's runs can arrive
// before the spawns on the master's ring; taken in drain order, the level
// would dip below zero and the peak would miss the backlog.
func (p *Profiler) drained() {
	p.mu.Lock()
	defer p.mu.Unlock()
	steps := p.queueSteps
	sort.Slice(steps, func(i, j int) bool {
		if steps[i].when != steps[j].when {
			return steps[i].when < steps[j].when
		}
		return steps[i].delta > steps[j].delta
	})
	for _, s := range steps {
		p.met.TaskQueue.Add(s.delta)
	}
	p.queueSteps = steps[:0]
	if p.tap != nil {
		p.tap.drained()
	}
}

// Zone opens an explicit application span named name; the returned
// function closes it. Usable with defer:
//
//	defer prof.Zone("assembly")()
func (p *Profiler) Zone(name string) func() { return p.span(kmp.Ident{Region: name}) }

// ZoneAt opens an explicit span attributed to a source location — the
// form the compiler's -profile mode injects, so the flat profile and
// timeline name spans by the user's file:line.
func (p *Profiler) ZoneAt(file string, line int, name string) func() {
	return p.span(kmp.Ident{File: file, Line: line, Region: name})
}

// ZoneAt opens a source-located span on the running profiler; the
// returned function closes it. When no profiler runs both open and close
// are no-ops, so instrumented binaries pay one pointer load per zone when
// profiling is off.
func ZoneAt(file string, line int, name string) func() {
	if p := running.Load(); p != nil {
		return p.ZoneAt(file, line, name)
	}
	return func() {}
}

func (p *Profiler) span(loc kmp.Ident) func() {
	start := kmp.TraceNow()
	return func() {
		s := zoneSpan{loc: loc, start: start, dur: kmp.TraceNow() - start}
		if th := kmp.Current(); th != nil {
			s.gtid = th.Gtid
		}
		p.closeZone(s)
	}
}

// closeZone folds one closed zone into p and its tap.
func (p *Profiler) closeZone(s zoneSpan) {
	p.mu.Lock()
	defer p.mu.Unlock()
	z := stats(p.zones, s.loc)
	z.calls++
	z.total += time.Duration(s.dur)
	if p.timelineCap > 0 && len(p.zoneSpans) < p.timelineCap {
		p.zoneSpans = append(p.zoneSpans, s)
	}
	if p.tap != nil {
		p.tap.closeZone(s)
	}
}

// RegionSummary is one row of the flat profile.
type RegionSummary struct {
	Name        string
	Calls       int64
	Total       time.Duration
	Mean        time.Duration
	MaxTeam     int
	Barriers    int64
	BarrierWait time.Duration
	Loops       int64
	LoopTime    time.Duration
	Steals      int64
	Tasks       int64
	TaskTime    time.Duration
	DepStalls   int64
	DepReleases int64
}

// Summaries drains pending events and returns per-region rows sorted by
// descending total time.
func (p *Profiler) Summaries() []RegionSummary {
	p.Flush()
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []RegionSummary
	collect := func(m map[kmp.Ident]*regionStats, unlocated string) {
		for loc, st := range m {
			s := RegionSummary{
				Name:        named(loc, unlocated),
				Calls:       st.calls,
				Total:       st.total,
				MaxTeam:     st.maxTeam,
				Barriers:    st.barriers,
				BarrierWait: st.barrierWait,
				Loops:       st.loops,
				LoopTime:    st.loopTime,
				Steals:      st.steals,
				Tasks:       st.tasks,
				TaskTime:    st.taskTime,
				DepStalls:   st.depStalls,
				DepReleases: st.depReleases,
			}
			if st.calls > 0 {
				s.Mean = st.total / time.Duration(st.calls)
			} else if st.tasks > 0 {
				// Task-only rows (a `task` construct's location): mean
				// body time is the useful granularity figure.
				s.Total = st.taskTime
				s.Mean = st.taskTime / time.Duration(st.tasks)
			}
			out = append(out, s)
		}
	}
	collect(p.regions, "(unlocated)")
	collect(p.zones, "")
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// Report renders the gprof-style flat profile, followed by the
// per-region imbalance/blame analysis (when multi-worker data exists)
// and a ring-overflow warning footer when events were dropped.
func (p *Profiler) Report() string {
	sums := p.Summaries()
	var total time.Duration
	for _, s := range sums {
		total += s.Total
	}
	var b strings.Builder
	b.WriteString("  %time     total      calls      mean  team  barriers   bar-wait  loops  steals  tasks  region\n")
	for _, s := range sums {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(s.Total) / float64(total)
		}
		fmt.Fprintf(&b, "  %5.1f  %8.3fms  %8d  %8.3fms  %4d  %8d  %7.3fms  %5d  %6d  %5d  %s\n",
			pct, ms(s.Total), s.Calls, ms(s.Mean), s.MaxTeam, s.Barriers, ms(s.BarrierWait),
			s.Loops, s.Steals, s.Tasks, s.Name)
	}
	if rows := p.Analyses(); len(rows) > 0 {
		b.WriteString("\n")
		b.WriteString(renderAnalyses(rows))
	}
	// Silent event loss must not stay buried in the registry: when rings
	// overflowed between drains, the counts above undercount activity.
	if drops := p.met.RingDrops.Value(); drops > 0 {
		fmt.Fprintf(&b, "\nWARNING: %d trace events dropped on full rings — counts above undercount activity; widen trace.WithRingSize or drain more often.\n", drops)
	}
	// Nor must a hang diagnosis: a report read off a wedged or recovered
	// process should lead with what the watchdog knows.
	if h := kmp.ReadHealth(); !h.Healthy || h.WatchdogTrips > 0 {
		fmt.Fprintf(&b, "\nWARNING: runtime health — healthy=%v, watchdog trips=%d.\n", h.Healthy, h.WatchdogTrips)
		for _, s := range h.Stuck {
			fmt.Fprintf(&b, "  worker g%d stuck %s in %s\n", s.Gtid, s.State, s.Region)
		}
	}
	return b.String()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

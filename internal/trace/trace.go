// Package trace is the tools layer the paper names as its next step:
// "add support for profiling … Modifying the compiler to automatically
// instrument applications with the calls to [the Tracy] library, providing
// functionality similar to that of gprof" (Section VI).
//
// A Profiler installs an OMPT-style collector on the runtime
// (kmp.SetCollector): every team thread records events into its own
// ring, the one the flight recorder reads too, and the collector drains
// them in batches at region joins and explicit flushes. The profiler
// aggregates the stream three
// ways at once:
//
//   - a gprof-style flat profile per source region (Report/Summaries),
//   - a runtime metrics registry — counters, gauges, histograms — with
//     an expvar surface and a text snapshot (Metrics),
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
	"time"

	"gomp/internal/kmp"
)

// regionStats accumulates one source region's activity.
type regionStats struct {
	name        string
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
	name       string
	start, dur int64 // ns on the runtime's trace clock
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

// WithGoTrace bridges parallel-region and task spans into Go's
// runtime/trace as user regions, so gomp activity lines up with
// goroutine scheduling in `go tool trace`.
func WithGoTrace() Option { return func(p *Profiler) { p.goTrace = true } }

// Profiler aggregates runtime events. Install with Start, detach with
// Stop. Only one profiler is active at a time (the collector pointer is
// global, as an OMPT tool is); starting a second one supersedes the
// first.
type Profiler struct {
	ringSize    int
	timelineCap int
	goTrace     bool

	col *kmp.Collector
	met Metrics

	mu           sync.Mutex
	regions      map[string]*regionStats
	zones        map[string]*regionStats
	events       []kmp.TraceEvent // retained timeline (nil unless WithTimeline)
	zoneSpans    []zoneSpan
	timelineDrop int64 // events past timelineCap
	lastDrops    uint64
	started      time.Time
	startNs      int64
}

// New returns an idle profiler.
func New(opts ...Option) *Profiler {
	p := &Profiler{
		regions: make(map[string]*regionStats),
		zones:   make(map[string]*regionStats),
	}
	for _, o := range opts {
		o(p)
	}
	p.col = kmp.NewCollector(p.ringSize)
	p.col.Sink = p.consume
	p.col.BridgeGoTrace = p.goTrace
	return p
}

// Start installs the profiler's collector as the runtime's active tool.
func (p *Profiler) Start() {
	p.mu.Lock()
	p.started = time.Now()
	p.startNs = kmp.TraceNow()
	p.mu.Unlock()
	kmp.SetCollector(p.col)
}

// Stop detaches the profiler (if it is still the active tool) and
// drains any buffered events.
func (p *Profiler) Stop() {
	if kmp.ActiveCollector() == p.col {
		kmp.SetCollector(nil)
	}
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
		p.lastDrops = d
	}
	p.mu.Unlock()
	return n
}

// Metrics returns the profiler's live metrics registry.
func (p *Profiler) Metrics() *Metrics { return &p.met }

func (p *Profiler) region(key string) *regionStats {
	if key == "" {
		key = "(unlocated)"
	}
	st := p.regions[key]
	if st == nil {
		st = &regionStats{name: key}
		p.regions[key] = st
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
		st := p.region(ev.Loc.String())
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
			p.met.TaskQueue.Add(1)
		case kmp.TraceTaskRun:
			st.tasks++
			st.taskTime += time.Duration(ev.Dur)
			st.worker(ev.Gtid).busy += time.Duration(ev.Dur)
			p.met.TaskRuns.Add(1)
			p.met.TaskNs.Add(ev.Dur)
			p.met.TaskRun.Observe(ev.Dur)
			p.met.TaskQueue.Add(-1)
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
}

// Zone opens an explicit application span named name; the returned
// function closes it. Usable with defer:
//
//	defer prof.Zone("assembly")()
func (p *Profiler) Zone(name string) func() { return p.span(name) }

// ZoneAt opens an explicit span attributed to a source location — the
// form the compiler's -profile mode injects, so the flat profile and
// timeline name spans by the user's file:line.
func (p *Profiler) ZoneAt(file string, line int, name string) func() {
	return p.span(fmt.Sprintf("%s:%d %s", file, line, name))
}

func (p *Profiler) span(name string) func() {
	start := kmp.TraceNow()
	return func() {
		end := kmp.TraceNow()
		gtid := 0
		if th := kmp.Current(); th != nil {
			gtid = th.Gtid
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		z := p.zones[name]
		if z == nil {
			z = &regionStats{name: name}
			p.zones[name] = z
		}
		z.calls++
		z.total += time.Duration(end - start)
		if p.timelineCap > 0 && len(p.zoneSpans) < p.timelineCap {
			p.zoneSpans = append(p.zoneSpans, zoneSpan{name: name, start: start, dur: end - start, gtid: gtid})
		}
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
	collect := func(m map[string]*regionStats) {
		for _, st := range m {
			s := RegionSummary{
				Name:        st.name,
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
	collect(p.regions)
	collect(p.zones)
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
		for _, c := range h.Cycles {
			fmt.Fprintf(&b, "  dependence cycle (deadlock): %s\n", c)
		}
		for _, s := range h.Stuck {
			fmt.Fprintf(&b, "  worker g%d stuck %s in %s\n", s.Gtid, s.State, s.Region)
		}
	}
	return b.String()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

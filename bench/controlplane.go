package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"capmaestro/internal/controlplane"
	"capmaestro/internal/core"
	"capmaestro/internal/fleetobs"
	"capmaestro/internal/power"
	"capmaestro/internal/scenario/refalloc"
	"capmaestro/internal/telemetry"
)

// cpShape is the fleet a control-plane workload drives.
type cpShape struct {
	racks, perRack int
	levels, fanOut int
	// churn re-draws every server's demand before each period and
	// installs it with RackWorker.SetTree.
	churn bool
}

var (
	deepSteady = cpShape{racks: 250, perRack: 40, levels: 3, fanOut: 16}
	wideChurn  = cpShape{racks: 2500, perRack: 4, levels: 2, fanOut: 16, churn: true}
)

func (s cpShape) toy() cpShape {
	s.racks, s.perRack, s.fanOut = 10, 3, 3
	return s
}

const (
	// endpoints is how many ServeRacks listeners host the racks; rack r
	// lives on endpoint r mod endpoints.
	endpoints = 2
	// Server envelope and demand range, in watts.
	capMin, capMax = 270, 490
	// rackLimitPerServer sizes each rack's own limit so it binds on
	// roughly a quarter of the racks.
	rackLimitPerServer = 387.5
	// budgetShare is the room budget as a share of total demand.
	budgetShare = 0.85
	// highShare is the share of servers at priority 1.
	highShare = 1.0 / 3
	// warmupPeriods run during each stand-up, before measuring.
	warmupPeriods = 10
	// minPeriods keeps at least ten samples beyond the p95.
	minPeriods = 200
	// matchTolerance is how far a rack's supply budget may sit from the
	// monolithic reference, in watts.
	matchTolerance = 0.001
)

// cpInputs are the generated inputs of one control-plane fleet. The
// program sees only the trees built from them.
type cpInputs struct {
	shape   cpShape
	rackIDs []string // sorted: "r00000", "r00001", ...
	supply  []string // supply IDs, rack-major
	prio    []core.Priority
	demand  []power.Watts
	budget  power.Watts
	churn   *rand.Rand
}

func genInputs(shape cpShape, seed int64) *cpInputs {
	rng := rand.New(rand.NewSource(seed))
	n := shape.racks * shape.perRack
	in := &cpInputs{
		shape:   shape,
		rackIDs: make([]string, shape.racks),
		supply:  make([]string, n),
		prio:    make([]core.Priority, n),
		demand:  make([]power.Watts, n),
		churn:   rand.New(rand.NewSource(seed ^ 0x636875726e)),
	}
	var total power.Watts
	for r := range in.rackIDs {
		in.rackIDs[r] = fmt.Sprintf("r%05d", r)
		for s := 0; s < shape.perRack; s++ {
			k := r*shape.perRack + s
			in.supply[k] = fmt.Sprintf("r%05d-s%02d", r, s)
			if rng.Float64() < highShare {
				in.prio[k] = 1
			}
			in.demand[k] = drawDemand(rng)
			total += in.demand[k]
		}
	}
	in.budget = budgetShare * total
	return in
}

func drawDemand(rng *rand.Rand) power.Watts {
	return capMin + power.Watts(rng.Float64())*(capMax-capMin)
}

// redraw draws a fresh demand for every server from the churn stream.
func (in *cpInputs) redraw() {
	for k := range in.demand {
		in.demand[k] = drawDemand(in.churn)
	}
}

// trees builds every rack's control tree from the current demands.
func (in *cpInputs) trees() []*core.Node {
	out := make([]*core.Node, in.shape.racks)
	for r := range out {
		leaves := make([]*core.Node, in.shape.perRack)
		for s := range leaves {
			k := r*in.shape.perRack + s
			leaves[s] = core.NewLeaf(in.supply[k], core.SupplyLeaf{
				SupplyID: in.supply[k], ServerID: in.supply[k], Priority: in.prio[k],
				Share: 1, CapMin: capMin, CapMax: capMax, Demand: in.demand[k],
			})
		}
		out[r] = core.NewShifting(in.rackIDs[r], rackLimitPerServer*power.Watts(in.shape.perRack), leaves...)
	}
	return out
}

// rackTracer hands traced rack wrappers the span context of the period in
// flight; the measuring loop sets it before each RunPeriod.
type rackTracer struct {
	rec    *recorder
	period atomic.Int64
	parent atomic.Int32
}

// tracedRack serves one rack in the traced run. It forwards every call,
// including each optional interface *RackWorker implements, to the worker
// and records a span around it, so the traced and untraced runs take the
// same code path.
type tracedRack struct {
	w    *controlplane.RackWorker
	t    *rackTracer
	lane int32 // endpoint
}

var (
	_ controlplane.RackClient     = (*tracedRack)(nil)
	_ controlplane.DigestGatherer = (*tracedRack)(nil)
)

func (r *tracedRack) record(name spanName, start int64) {
	r.t.rec.add(name, r.t.period.Load(), r.lane, r.t.parent.Load(), start, r.t.rec.now())
}

func (r *tracedRack) Gather(ctx context.Context) (core.Summary, error) {
	start := r.t.rec.now()
	s, err := r.w.Gather(ctx)
	r.record(spanRackGather, start)
	return s, err
}

func (r *tracedRack) GatherDigest(ctx context.Context) (core.Summary, *fleetobs.StatDigest, error) {
	start := r.t.rec.now()
	s, d, err := r.w.GatherDigest(ctx)
	r.record(spanRackGather, start)
	return s, d, err
}

func (r *tracedRack) ApplyBudget(ctx context.Context, b power.Watts) error {
	start := r.t.rec.now()
	err := r.w.ApplyBudget(ctx, b)
	r.record(spanRackApply, start)
	return err
}

// cpFleet is one stood-up control plane: rack workers behind two
// ServeRacks endpoints, dialed once each with the shipped transport
// defaults, under a BuildHierarchy room.
type cpFleet struct {
	in      *cpInputs
	workers []*controlplane.RackWorker
	trees   []*core.Node // installed trees, by rack index
	servers []*controlplane.RackServer
	clients []*controlplane.TCPClient
	h       *controlplane.Hierarchy
	reg     *telemetry.Registry // traced fleets only
	tracer  *rackTracer         // traced fleets only
}

// standUp builds a fleet from the inputs. A non-nil recorder makes it a
// traced fleet: racks are served through tracedRack and the program's
// telemetry goes to a registry the benchmark reads.
func standUp(in *cpInputs, rec *recorder) (*cpFleet, error) {
	f := &cpFleet{in: in, trees: in.trees()}
	var opts []controlplane.Option
	if rec != nil {
		f.reg = telemetry.NewRegistry()
		f.tracer = &rackTracer{rec: rec}
		f.tracer.parent.Store(noParent)
		opts = append(opts, controlplane.WithTelemetry(f.reg))
	}
	hosted := make([]map[string]controlplane.RackClient, endpoints)
	for e := range hosted {
		hosted[e] = make(map[string]controlplane.RackClient)
	}
	for r, id := range in.rackIDs {
		w, err := controlplane.NewRackWorker(id, f.trees[r], core.GlobalPriority, nil)
		if err != nil {
			return nil, err
		}
		f.workers = append(f.workers, w)
		var c controlplane.RackClient = w
		if rec != nil {
			c = &tracedRack{w: w, t: f.tracer, lane: int32(r % endpoints)}
		}
		hosted[r%endpoints][id] = c
	}
	for _, m := range hosted {
		srv, err := controlplane.ServeRacks(m, "127.0.0.1:0", opts...)
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		f.clients = append(f.clients, controlplane.DialRack(srv.Addr(), 0, opts...))
	}
	handles := make(map[string]controlplane.RackClient, len(in.rackIDs))
	for r, id := range in.rackIDs {
		handles[id] = f.clients[r%endpoints].Rack(id)
	}
	h, err := controlplane.BuildHierarchy(handles, controlplane.HierarchyConfig{
		Levels: in.shape.levels, FanOut: in.shape.fanOut,
		Policy: core.GlobalPriority, Budget: in.budget, Opts: opts,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.h = h
	return f, nil
}

func (f *cpFleet) close() {
	for _, c := range f.clients {
		c.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
}

// period runs one control period and returns how many rack RPCs failed
// or were held, summed over the room and every aggregator.
func (f *cpFleet) period(ctx context.Context) (int, error) {
	_, st, err := f.h.Room.RunPeriod(ctx)
	failed := st.GatherErrors + st.ApplyErrors + st.BudgetsHeld
	for _, tier := range f.h.Tiers {
		for _, a := range tier {
			s := a.LastStats()
			failed += s.GatherErrors + s.ApplyErrors + s.BudgetsHeld
		}
	}
	return failed, err
}

// rpcsPerPeriod is the rack RPCs one period attempts: a gather and a
// push per rack.
func (f *cpFleet) rpcsPerPeriod() int64 { return 2 * int64(len(f.workers)) }

// install hands every rack its new tree through SetTree.
func (f *cpFleet) install(trees []*core.Node) error {
	for r, w := range f.workers {
		if err := w.SetTree(trees[r]); err != nil {
			return err
		}
	}
	f.trees = trees
	return nil
}

// nest builds the monolithic tree the hierarchy stands for: the rack
// trees in sorted-ID order, chunked by the fan-out into one unconstrained
// shifting node per aggregator, exactly as BuildHierarchy shards them.
func nest(racks []*core.Node, fanOut, levels int) *core.Node {
	nodes := racks
	for level := 1; level <= levels-2; level++ {
		var next []*core.Node
		for gi := 0; gi*fanOut < len(nodes); gi++ {
			chunk := nodes[gi*fanOut : min((gi+1)*fanOut, len(nodes))]
			next = append(next, core.NewShifting(fmt.Sprintf("l%d-%d", level, gi), 0, chunk...))
		}
		nodes = next
	}
	return core.NewShifting("room", 0, nodes...)
}

// verify checks the last period against the refalloc oracle over the
// monolithic nested tree: every rack's supply budgets within
// matchTolerance, and the racks' budgets summing to at most the room
// budget. It records one attempted check per rack plus the sum check.
func (f *cpFleet) verify(o *outcome) error {
	ref, err := refalloc.Allocate(nest(f.trees, f.in.shape.fanOut, f.in.shape.levels), f.in.budget, core.GlobalPriority)
	if err != nil {
		return fmt.Errorf("reference allocation: %w", err)
	}
	var sum power.Watts
	for r, w := range f.workers {
		o.attempted++
		alloc := w.LastAllocation()
		if alloc == nil || len(alloc.SupplyBudgets) != f.in.shape.perRack {
			o.fail("rack %s: no complete allocation", w.ID())
			continue
		}
		for s := 0; s < f.in.shape.perRack; s++ {
			sid := f.in.supply[r*f.in.shape.perRack+s]
			got, want := alloc.SupplyBudgets[sid], ref.SupplyBudgets[sid]
			if math.Abs(float64(got-want)) > matchTolerance {
				o.fail("supply %s: budget %.6f W, reference %.6f W", sid, got, want)
				break
			}
		}
		sum += w.LastBudget()
	}
	o.attempted++
	if sum > f.in.budget+matchTolerance {
		o.fail("rack budgets sum to %.3f W, above the room budget %.3f W", sum, f.in.budget)
	}
	return nil
}

// cpMeasure is what one measured phase saw.
type cpMeasure struct {
	starts  []time.Time     // RunPeriod start times
	periods []time.Duration // RunPeriod wall times
	cycles  []time.Duration // SetTree plus RunPeriod wall times
	refresh time.Duration   // total SetTree time
}

// cyclesPerSec is refresh+period cycles per second of the time they took.
func (m cpMeasure) cyclesPerSec() float64 { return windowRate(m.cycles, 1) }

// measure runs closed-loop periods for at least d and minPeriods. With a
// recorder it records a refresh and a period span per cycle; the racks'
// handler spans hang off the period span.
func (f *cpFleet) measure(ctx context.Context, o *outcome, d time.Duration, rec *recorder, cal *calibrator) (cpMeasure, error) {
	var m cpMeasure
	deadline := time.Now().Add(d)
	for k := int64(0); k < minPeriods || time.Now().Before(deadline); k++ {
		if cal != nil {
			cal.maybe()
		}
		var refresh time.Duration
		if f.in.shape.churn {
			f.in.redraw()
			trees := f.in.trees()
			sp := int32(noParent)
			if rec != nil {
				sp = rec.begin(spanRefresh, k, 0, noParent)
			}
			start := time.Now()
			err := f.install(trees)
			refresh = time.Since(start)
			m.refresh += refresh
			if rec != nil {
				rec.end(sp)
			}
			if err != nil {
				return m, err
			}
		}
		sp := int32(noParent)
		if rec != nil {
			sp = rec.begin(spanPeriod, k, 0, noParent)
			f.tracer.period.Store(k)
			f.tracer.parent.Store(sp)
		}
		start := time.Now()
		failed, err := f.period(ctx)
		p := time.Since(start)
		m.starts = append(m.starts, start)
		m.periods = append(m.periods, p)
		m.cycles = append(m.cycles, refresh+p)
		if rec != nil {
			rec.end(sp)
		}
		o.attempted += f.rpcsPerPeriod()
		o.failed += int64(failed)
		if err != nil {
			o.fail("period %d: %v", k, err)
		}
	}
	return m, nil
}

// standUpTimed stands a fleet up and runs the warmup periods, returning
// the fleet and the wall time both took.
func standUpTimed(ctx context.Context, o *outcome, in *cpInputs, rec *recorder) (*cpFleet, time.Duration, error) {
	runtime.GC()
	var f *cpFleet
	d, err := timeIt(func() error {
		var err error
		if f, err = standUp(in, rec); err != nil {
			return err
		}
		for i := 0; i < warmupPeriods; i++ {
			failed, err := f.period(ctx)
			o.attempted += f.rpcsPerPeriod()
			o.failed += int64(failed)
			if err != nil {
				o.fail("warmup period %d: %v", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return f, d, f.verify(o)
}

func runControlPlane(cfg config, shape cpShape) (*outcome, error) {
	if cfg.toy {
		shape = shape.toy()
	}
	o := newOutcome()
	ctx := context.Background()
	in := genInputs(shape, cfg.seed)
	o.logf("fleet: %d racks x %d servers, %d levels, fan-out %d, %d endpoints, churn %v, budget %.0f W",
		shape.racks, shape.perRack, shape.levels, shape.fanOut, endpoints, shape.churn, in.budget)

	if !cfg.trace {
		var f *cpFleet
		cal := newCalibrator()
		setups := make([]time.Duration, setupRepeats)
		setupStarts := make([]time.Time, setupRepeats)
		for i := range setups {
			if f != nil {
				f.close()
			}
			cal.sample()
			setupStarts[i] = time.Now()
			var err error
			if f, setups[i], err = standUpTimed(ctx, o, in, nil); err != nil {
				return nil, err
			}
		}
		defer f.close()
		m, err := f.measure(ctx, o, cfg.seconds, nil, cal)
		if err != nil {
			return nil, err
		}
		if err := f.verify(o); err != nil {
			return nil, err
		}
		cal.sample()
		setupMetric(o, cal, setupStarts, setups)
		stepMetrics(o, cal, m.starts, m.periods, m.cycles, 1)
		o.logf("refresh: %.3f ms per cycle", float64(m.refresh)/float64(time.Millisecond)/float64(len(m.periods)))
		o.metrics["live_heap_mb"] = liveHeapMiB()
		runtime.KeepAlive(f)
		return o, nil
	}

	// Traced run: half the time untraced for the overhead baseline, half
	// traced on a fresh fleet.
	half := cfg.seconds / 2
	plain, _, err := standUpTimed(ctx, o, in, nil)
	if err != nil {
		return nil, err
	}
	pm, err := plain.measure(ctx, o, half, nil, nil)
	plain.close()
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	f, _, err := standUpTimed(ctx, o, in, rec)
	if err != nil {
		return nil, err
	}
	defer f.close()
	rec.reset()
	before, rt0 := readTelemetry(f.reg), readRuntime()
	m, err := f.measure(ctx, o, half, rec, nil)
	if err != nil {
		return nil, err
	}
	rt1, after := readRuntime(), readTelemetry(f.reg)
	if err := f.verify(o); err != nil {
		return nil, err
	}
	spans := rec.snapshot()
	cpLayers(o, f, m, spans, before.to(after), rt0.to(rt1))
	o.metrics["trace.overhead_ratio"] = m.cyclesPerSec() / pm.cyclesPerSec()
	o.logf("trace overhead: traced %.3f vs untraced %.3f cycles/s", m.cyclesPerSec(), pm.cyclesPerSec())
	return o, writeOut(o, cfg, spans)
}

// writeOut writes the traced run's spans, when asked to.
func writeOut(o *outcome, cfg config, spans []span) error {
	if cfg.spans == "" {
		return nil
	}
	if err := writeSpans(cfg.spans, spans); err != nil {
		return err
	}
	o.logf("spans: %d written to %s", len(spans), cfg.spans)
	return nil
}

// cpLayers derives the control-plane per-layer metrics of a traced phase.
func cpLayers(o *outcome, f *cpFleet, m cpMeasure, spans []span, tel telemetrySnap, rt runtimeDelta) {
	n := float64(len(m.periods))
	racks := float64(len(f.workers))
	tot := totals(spans)
	gather, apply := tot[spanRackGather], tot[spanRackApply]
	o.metrics["rack.gather_us"] = gather.meanUs()
	o.metrics["rack.apply_us"] = apply.meanUs()
	o.metrics["rack.set_tree_us"] = ratio(float64(m.refresh)/float64(time.Microsecond), n*racks)
	o.metrics["rack.busy_ms_per_period"] = float64(gather.dur+apply.dur) / float64(time.Millisecond) / n

	room := [3]float64{tel.phase[0].meanMs(), tel.phase[1].meanMs(), tel.phase[2].meanMs()}
	o.metrics["room.gather_ms"], o.metrics["room.allocate_ms"], o.metrics["room.push_ms"] = room[0], room[1], room[2]
	meanPeriod := float64(sumDur(m.periods)) / float64(time.Millisecond) / n
	o.metrics["room.phase_coverage"] = (room[0] + room[1] + room[2]) / meanPeriod
	gc, pc := criticalPaths(spans)
	o.metrics["room.gather_critical_ms"], o.metrics["room.push_critical_ms"] = gc, pc
	o.metrics["room.gather_wait_ms"] = room[0] - gc
	o.metrics["room.push_wait_ms"] = room[2] - pc
	o.metrics["agg.gather_ms"], o.metrics["agg.push_ms"] = tel.aggGather.meanMs(), tel.aggPush.meanMs()

	o.metrics["wire.bytes_in_per_period"] = tel.bytesIn / n
	o.metrics["wire.bytes_out_per_period"] = tel.bytesOut / n
	o.metrics["wire.frames_per_period"] = tel.frames / n
	o.metrics["wire.encode_us"] = tel.encode.meanMs() * 1000
	o.metrics["wire.delta_hit_ratio"] = ratio(tel.deltaHits, float64(gather.count))
	o.metrics["wire.retries"] = tel.retries
	o.metrics["wire.errors"] = tel.errors

	o.metrics["mem.allocs_per_period"] = rt.allocs / n
	o.metrics["mem.alloc_bytes_per_period"] = rt.allocBytes / n
	o.metrics["gc.cycles_per_period"] = rt.gcCycles / n
	o.metrics["gc.cpu_fraction"] = rt.gcCPUFraction

	o.logf("traced periods: %d, mean %.3f ms; room gather %.3f + allocate %.3f + push %.3f ms (%.1f%% of the period)",
		len(m.periods), meanPeriod, room[0], room[1], room[2], 100*o.metrics["room.phase_coverage"])
	o.logf("period self time (outside rack handlers): %.3f ms mean", float64(tot[spanPeriod].self)/float64(time.Millisecond)/n)
}

// criticalPaths returns, averaged over periods, the largest per-endpoint
// sum of rack gather handler time and of rack apply handler time: the
// rack work one endpoint's connection serializes.
func criticalPaths(spans []span) (gatherMs, pushMs float64) {
	type key struct {
		id   int64
		lane int32
	}
	g, p := map[key]time.Duration{}, map[key]time.Duration{}
	periods := map[int64]bool{}
	for _, s := range spans {
		switch s.name {
		case spanRackGather:
			g[key{s.id, s.lane}] += s.dur()
		case spanRackApply:
			p[key{s.id, s.lane}] += s.dur()
		case spanPeriod:
			periods[s.id] = true
		}
	}
	var gs, ps time.Duration
	for id := range periods {
		var gm, pm time.Duration
		for lane := int32(0); lane < endpoints; lane++ {
			gm = max(gm, g[key{id, lane}])
			pm = max(pm, p[key{id, lane}])
		}
		gs += gm
		ps += pm
	}
	n := float64(len(periods)) * float64(time.Millisecond)
	return ratio(float64(gs), n), ratio(float64(ps), n)
}

// Package controlplane implements CapMaestro as a control-plane service
// (Section 5 of the paper): the shifting and capping controllers are
// grouped into workers — rack-level workers that protect their rack's CDUs
// and manage the rack's capping controllers, and a room-level worker that
// protects RPPs, transformers, and the contractual budget.
//
// Every control period the room worker gathers priority-grouped metric
// summaries from the rack workers, runs the budgeting phase over its upper
// tree (where each rack appears as a proxy node carrying only its
// summary), and pushes each rack its budget; rack workers then distribute
// their budget down to individual power supplies. Workers communicate
// through a RackClient transport: in-process for single-binary
// deployments, or a binary protocol over TCP (see transport.go) matching
// the paper's worker-VM deployment.
package controlplane

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"time"

	"capmaestro/internal/core"
	"capmaestro/internal/fleetobs"
	"capmaestro/internal/flightrec"
	"capmaestro/internal/power"
	"capmaestro/internal/slo"
)

// BudgetSink receives the final per-supply budgets a rack worker computes;
// implementations forward them to the servers' capping controllers.
type BudgetSink func(supplyID string, budget power.Watts)

// RackWorker owns the control subtree for one rack (typically the CDU-level
// shifting controllers and the rack's capping-controller endpoints).
type RackWorker struct {
	id     string
	policy core.Policy

	mu sync.Mutex
	// engine is the persistent allocator bound to the current subtree:
	// gathers summarize through it and budget applications run it, so a
	// steady-state period allocates nothing for the rack's own work.
	engine *core.Allocator
	sink   BudgetSink

	lastBudget power.Watts
	// applied reports whether engine holds an applied budget's result.
	// prevAlloc is the last applied result of an engine replaced by a
	// shape-changing SetTree, served until the next ApplyBudget.
	applied   bool
	prevAlloc *core.Allocation

	log        *slog.Logger
	met        rackMetrics
	budgetSeen bool

	// dig is the worker's reusable self-digest scratch; GatherDigest
	// rewrites it under mu each call and hands out a pointer, which the
	// in-process caller copies before the next gather wave (the room's
	// pipelined ordering guarantees the waves never overlap).
	dig fleetobs.StatDigest
}

// NewRackWorker creates a rack worker for the given local subtree.
func NewRackWorker(id string, tree *core.Node, policy core.Policy, sink BudgetSink, opts ...Option) (*RackWorker, error) {
	if id == "" {
		return nil, errors.New("controlplane: empty rack worker ID")
	}
	if tree == nil {
		return nil, errors.New("controlplane: nil rack subtree")
	}
	engine, err := core.NewAllocator(tree)
	if err != nil {
		return nil, fmt.Errorf("controlplane: rack %s: %w", id, err)
	}
	o := buildOptions(opts)
	return &RackWorker{
		id: id, policy: policy, engine: engine, sink: sink,
		log: o.log,
		met: newRackMetrics(o.reg, id),
	}, nil
}

// ID returns the worker's identifier.
func (w *RackWorker) ID() string { return w.id }

// SetTree atomically replaces the worker's subtree; callers refresh leaf
// demand estimates and shares every control period before gathering. A
// tree of the same shape (see core.Allocator.Rebind) is rebound in place;
// any other valid tree gets a new engine.
func (w *RackWorker) SetTree(tree *core.Node) error {
	if tree == nil {
		return errors.New("controlplane: nil rack subtree")
	}
	if err := tree.Validate(); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.engine.Rebind(tree) {
		return nil
	}
	engine, err := core.NewAllocator(tree)
	if err != nil {
		return err
	}
	if w.applied {
		w.prevAlloc = w.engine.Snapshot()
		w.applied = false
	}
	w.engine = engine
	return nil
}

// Gather computes the metric summary this rack reports upstream.
func (w *RackWorker) Gather(ctx context.Context) (core.Summary, error) {
	if err := ctx.Err(); err != nil {
		return core.Summary{}, err
	}
	span := flightrec.TraceFrom(ctx).StartSpan("rack.gather", w.id, flightrec.ParentIDFrom(ctx))
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.engine.Summarize(w.policy)
	span.End(nil)
	return s, nil
}

// GatherDigest gathers the rack's summary plus its single-rack fleet
// observability digest, derived from the same snapshot under one lock so
// the two never disagree.
func (w *RackWorker) GatherDigest(ctx context.Context) (core.Summary, *fleetobs.StatDigest, error) {
	if err := ctx.Err(); err != nil {
		return core.Summary{}, nil, err
	}
	span := flightrec.TraceFrom(ctx).StartSpan("rack.gather", w.id, flightrec.ParentIDFrom(ctx))
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.engine.Summarize(w.policy)
	span.End(nil)
	rackSelfDigest(&w.dig, w.id, &s, w.lastBudget, w.budgetSeen)
	return s, &w.dig, nil
}

// ApplyBudget distributes the budget assigned by the room worker down the
// rack's subtree and forwards the per-supply budgets to the sink, in the
// engine's BFS leaf order. A traced period's explain records go to its
// flight-recorder trace.
func (w *RackWorker) ApplyBudget(ctx context.Context, b power.Watts) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	pt := flightrec.TraceFrom(ctx)
	span := pt.StartSpan("rack.apply", w.id, flightrec.ParentIDFrom(ctx))
	w.mu.Lock()
	defer w.mu.Unlock()
	w.engine.SetExplainSink(pt.ExplainSink())
	w.engine.Run(b, w.policy)
	w.engine.SetExplainSink(nil)
	span.End(nil)
	if w.log != nil && w.budgetSeen &&
		math.Abs(float64(b-w.lastBudget)) > float64(DefaultBudgetLogDelta) {
		w.log.Info("rack budget changed", "rack", w.id,
			"old", float64(w.lastBudget), "new", float64(b))
	}
	w.budgetSeen = true
	w.lastBudget = b
	w.applied = true
	w.prevAlloc = nil
	w.met.budget.Set(float64(b))
	w.met.applies.Inc()
	if w.sink != nil {
		for i := 0; i < w.engine.Len(); i++ {
			if l := w.engine.Node(i).Leaf; l != nil {
				w.sink(l.SupplyID, w.engine.NodeBudget(i))
			}
		}
	}
	return nil
}

// LastBudget returns the most recent budget received from upstream.
func (w *RackWorker) LastBudget() power.Watts {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastBudget
}

// LastAllocation returns the most recent local allocation (nil before the
// first period), built afresh on every call.
func (w *RackWorker) LastAllocation() *core.Allocation {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.applied {
		return w.engine.Snapshot()
	}
	return w.prevAlloc
}

// RackClient is the transport-facing interface of a rack worker. The room
// worker only ever exchanges summaries and budgets — never per-server
// state — which is what keeps the design scalable (Section 4.1).
type RackClient interface {
	Gather(ctx context.Context) (core.Summary, error)
	ApplyBudget(ctx context.Context, b power.Watts) error
}

// LocalClient adapts an in-process RackWorker to the RackClient interface.
type LocalClient struct{ Worker *RackWorker }

// Gather implements RackClient.
func (c LocalClient) Gather(ctx context.Context) (core.Summary, error) {
	return c.Worker.Gather(ctx)
}

// GatherDigest implements DigestGatherer.
func (c LocalClient) GatherDigest(ctx context.Context) (core.Summary, *fleetobs.StatDigest, error) {
	return c.Worker.GatherDigest(ctx)
}

// ApplyBudget implements RackClient.
func (c LocalClient) ApplyBudget(ctx context.Context, b power.Watts) error {
	return c.Worker.ApplyBudget(ctx, b)
}

// PeriodStats summarizes one room-worker control period, or an
// aggregator's last gather and apply passes (Aggregator.LastStats).
// GatherErrors, ApplyErrors and RacksServed count the tier's direct
// children: racks under a flat room or a level-1 aggregator, aggregators
// above those.
type PeriodStats struct {
	GatherErrors int
	ApplyErrors  int
	// BudgetsHeld counts children whose budget push was withheld: those
	// that have never reported a summary, and those whose last summary is
	// older than the staleness bound.
	BudgetsHeld int
	RacksServed int
	Elapsed     time.Duration
	// Overlap is how long this period's push phase ran concurrently with
	// the next period's gather. Always zero outside RunPipelined.
	Overlap time.Duration
	// Fleet is the period's merged fleet digest reduced to its headline
	// numbers (zero value when digests are off or before the first
	// rollup).
	Fleet fleetobs.DigestSummary
}

// RoomWorker protects the upper levels of the power hierarchy. Its tree's
// proxy nodes stand in for rack workers (or aggregators); the map
// connects proxy node IDs to their transports. It is the top face of a
// control tier, whose gather, hold and push logic it shares with
// Aggregator, and adds what only the room has: the contractual budget,
// the period loop, the flight record, SLO evaluation and the fleet
// rollup's publication.
//
// Failure semantics: a rack whose gather has never succeeded is never
// pushed a budget — the room either excludes it from allocation (default)
// or reserves a configurable failsafe budget for it (WithFailsafeBudget).
// A rack that has reported before keeps its last summary when gathers
// fail, so the room keeps accounting for its load; once its summary is
// older than the staleness bound (WithStalenessBound) its budget pushes
// are held too, freezing the rack at its last acknowledged budget instead
// of steering it from unboundedly stale state.
type RoomWorker struct {
	tier     *tier
	budget   power.Watts
	met      roomMetrics
	recorder *flightrec.Recorder
	slo      *slo.Tracker
	history  *fleetobs.History // backs /debug/fleet/history; nil without digests

	// periodMu serializes control periods: only a running period drives
	// the tier's gather, allocate and push passes.
	periodMu sync.Mutex

	// mu guards the observable state below and is never held across rack
	// RPCs, so Healthy, LastStats, and LastAllocation return immediately
	// even while a period's network calls are in flight.
	mu          sync.Mutex
	lastAlloc   *core.Allocation
	lastStats   PeriodStats
	periods     uint64
	pubFleet    fleetobs.StatDigest    // latest merged fleet digest
	curFleetSum fleetobs.DigestSummary // its headline numbers, for PeriodStats
	fleetWaves  uint64                 // rollups performed (0 = none yet)
	fleetTime   time.Time              // when the latest rollup happened
}

// NewRoomWorker creates a room worker. tree is the upper control tree
// (contractual root, transformers, RPPs) whose proxy nodes' IDs appear as
// keys in racks. budget is the contractual budget for this tree; zero uses
// the tree constraint.
func NewRoomWorker(tree *core.Node, budget power.Watts, policy core.Policy, racks map[string]RackClient, opts ...Option) (*RoomWorker, error) {
	o := buildOptions(opts)
	t, err := newTier("room", "rack", tree, policy, racks, &o, o.log)
	if err != nil {
		return nil, err
	}
	w := &RoomWorker{
		tier:     t,
		budget:   budget,
		met:      newRoomMetrics(o.reg, racks),
		recorder: o.recorder,
		slo:      o.slo,
	}
	t.met = w.met.tier
	if t.digests {
		w.history = fleetobs.NewHistory(o.fleetHistory)
	}
	w.met.racks.Set(float64(len(racks)))
	w.met.budget.Set(float64(budget))
	w.met.unseenRacks.Set(float64(len(racks)))
	return w, nil
}

// RunPeriod executes one full control period: gather summaries from all
// racks in parallel, allocate over the upper tree, and push budgets back in
// parallel. Racks that fail to respond keep their previous budgets; their
// proxies keep the last summary so the room still protects its own limits.
// Racks that have never responded, or whose summaries exceed the staleness
// bound, have their budget pushes held (see the RoomWorker failure
// semantics). No lock observable from Healthy, LastStats, or LastAllocation
// is held while RPCs are in flight; concurrent RunPeriod calls serialize.
//
// A context cancelled before or during the gather phase aborts the period
// with ctx's error without recording rack failures — a shutdown is not a
// rack outage.
func (w *RoomWorker) RunPeriod(ctx context.Context) (*core.Allocation, PeriodStats, error) {
	w.periodMu.Lock()
	defer w.periodMu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, PeriodStats{}, err
	}
	start := time.Now()
	stats := PeriodStats{RacksServed: len(w.tier.children)}
	if log := w.tier.log; log != nil {
		log.Debug("control period start", "racks", len(w.tier.children))
	}

	// With a flight recorder attached, the whole period runs under one
	// trace: a per-period root span, per-phase children, and one RPC span
	// per rack that the rack's own spans (shipped back over the transport)
	// nest under. All span calls no-op when pt is nil.
	var pt *flightrec.PeriodTrace
	if w.recorder.Enabled() {
		pt = flightrec.NewPeriodTrace()
	}
	root := pt.StartSpan("period", "room", "")

	if err := w.gatherPhase(ctx, pt, root.ID()); err != nil {
		// Cancelled mid-gather (typically clean shutdown): the per-rack
		// context errors carry no signal about rack health, and no period
		// record is written — a shutdown is not a period.
		return nil, stats, err
	}
	alloc := w.allocPhase(pt, root.ID(), &stats)
	w.pushPhase(ctx, pt, root.ID(), alloc, &stats)

	stats.Elapsed = time.Since(start)
	w.finishPeriod(pt, root, start, alloc, stats)
	return alloc, stats, nil
}

// gatherPhase runs the tier's gather wave over all racks. It returns
// ctx's error when the wave was cancelled, leaving the outcomes
// uncommitted; gather metrics are only recorded for completed waves.
func (w *RoomWorker) gatherPhase(ctx context.Context, pt *flightrec.PeriodTrace, rootID string) error {
	start := time.Now()
	gatherSpan := pt.StartSpan("gather", "room", rootID)
	w.tier.gather(ctx, pt, gatherSpan.ID())
	gatherSpan.End(nil)
	if err := ctx.Err(); err != nil {
		return err
	}
	w.met.gatherSeconds.ObserveSince(start)
	return nil
}

// allocPhase commits the gather outcomes into the tier (counting the
// period's gather errors), folds and publishes the fleet digest, and runs
// the budgeting phase on the persistent engine. The allocate phase histogram and span time all of
// it, so the three phases cover the period. It touches the tree and
// engine, so in pipelined mode it must not run while a previous period's
// push wave is still in flight (the runner joins the push first).
func (w *RoomWorker) allocPhase(pt *flightrec.PeriodTrace, rootID string, stats *PeriodStats) *core.Allocation {
	allocStart := time.Now()
	allocSpan := pt.StartSpan("allocate", "room", rootID)
	t := w.tier
	t.runMu.Lock()
	n := t.commit()
	stats.GatherErrors = n.errors
	w.met.unseenRacks.Set(float64(n.unseen))
	if t.digests {
		w.publishFleet(t.foldDigest(0))
	}
	alloc := t.allocate(pt, w.budget)
	t.runMu.Unlock()
	allocSpan.End(nil)
	w.met.allocateSeconds.ObserveSince(allocStart)
	return alloc
}

// publishFleet publishes the period's fleet rollup — the tier's folded
// digest and the room's own level row — to FleetReport, the history ring
// and the fleet gauges.
func (w *RoomWorker) publishFleet(fleet *fleetobs.StatDigest, own fleetobs.LevelStats) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pubFleet.CopyFrom(fleet)
	w.curFleetSum = fleet.Summary()
	w.fleetWaves++
	w.fleetTime = time.Now()
	w.history.Append(fleetobs.Sample{
		Period:         w.fleetWaves,
		UnixMs:         w.fleetTime.UnixMilli(),
		PowerW:         fleet.PowerW,
		BudgetW:        fleet.BudgetW,
		HeadroomW:      fleet.HeadroomW,
		WorstHeadroomW: fleet.WorstHeadroomW,
		ViolatingRacks: fleet.ViolatingRacks,
		OutlierRacks:   len(fleet.Outliers),
		StaleRacks:     own.Stale,
		HeldRacks:      own.Held,
		GatherErrors:   own.GatherErrors,
	})
	w.met.fleetRacks.Set(float64(fleet.Racks))
	w.met.fleetPower.Set(fleet.PowerW)
	w.met.fleetHeadroom.Set(fleet.HeadroomW)
	w.met.fleetWorstHeadroom.Set(fleet.WorstHeadroomW)
	w.met.fleetViolating.Set(float64(fleet.ViolatingRacks))
	w.met.fleetOutliers.Set(float64(len(fleet.Outliers)))
}

// pushPhase runs the tier's push wave for alloc, skipping racks held by
// the last commit. In pipelined mode it runs concurrently with the next
// period's gatherPhase, which leaves the holds and engine it reads alone
// until the runner joins the wave.
func (w *RoomWorker) pushPhase(ctx context.Context, pt *flightrec.PeriodTrace, rootID string, alloc *core.Allocation, stats *PeriodStats) {
	start := time.Now()
	pushSpan := pt.StartSpan("push", "room", rootID)
	t := w.tier
	t.runMu.Lock()
	stats.BudgetsHeld = t.preparePush(alloc)
	t.runMu.Unlock()
	stats.ApplyErrors, _ = t.push(ctx, pt, pushSpan.ID())
	pushSpan.End(nil)
	w.met.pushSeconds.ObserveSince(start)
}

// finishPeriod publishes a completed period: stats commit, trace record,
// SLO evaluation, and end-of-period logging.
func (w *RoomWorker) finishPeriod(pt *flightrec.PeriodTrace, root *flightrec.ActiveSpan, start time.Time, alloc *core.Allocation, stats PeriodStats) {
	if w.tier.digests {
		// The fleet summary was built by this period's allocPhase; in
		// pipelined mode the next allocPhase cannot have run yet (it waits
		// for this finish), so curFleetSum is still this period's.
		w.mu.Lock()
		stats.Fleet = w.curFleetSum
		w.mu.Unlock()
	}
	w.commitPeriod(alloc, stats)
	root.End(nil)
	w.recordPeriod(pt, start, stats, alloc, nil)
	w.evalSLO()
	w.met.budget.Set(float64(w.budget))
	if log := w.tier.log; log != nil {
		if stats.GatherErrors > 0 || stats.ApplyErrors > 0 || stats.BudgetsHeld > 0 {
			log.Warn("control period end", "elapsed", stats.Elapsed,
				"gather_errors", stats.GatherErrors, "apply_errors", stats.ApplyErrors,
				"budgets_held", stats.BudgetsHeld)
		} else {
			log.Debug("control period end", "elapsed", stats.Elapsed)
		}
	}
}

// pendingPeriod carries period k's state across the pipeline overlap:
// its push wave runs while period k+1 gathers, and the period is
// finished — stats, flight record, callback — once the push joins.
type pendingPeriod struct {
	start time.Time
	pt    *flightrec.PeriodTrace
	root  *flightrec.ActiveSpan
	alloc *core.Allocation
	stats PeriodStats
	done  chan struct{}
	push  time.Duration
}

// RunPipelined executes count control periods back to back, overlapping
// each period's push phase with the next period's gather: period k's
// budgets (computed from gather k) push down while gather k+1 is already
// collecting the next summaries. count <= 0 runs until ctx is cancelled.
//
// Freshness semantics are identical to RunPeriod: budgets pushed in
// period k are always derived from gather k — the overlap never reorders
// a push ahead of the gather that justified it, because allocation k+1
// waits for push k to join. The only lag pipelining adds is wall-clock:
// a rack may receive budget k while already reporting summary k+1.
//
// onPeriod (may be nil) receives each completed period once its push
// wave has joined — so period k's callback fires during period k+1.
// PeriodStats.Overlap reports how long the period's push ran
// concurrently with the next gather. A period whose gather is cancelled
// is never reported; the period whose push was already in flight is.
func (w *RoomWorker) RunPipelined(ctx context.Context, count int, onPeriod func(*core.Allocation, PeriodStats, error)) error {
	w.periodMu.Lock()
	defer w.periodMu.Unlock()
	var pend *pendingPeriod
	finish := func(p *pendingPeriod) {
		p.stats.Elapsed = time.Since(p.start)
		w.finishPeriod(p.pt, p.root, p.start, p.alloc, p.stats)
		if onPeriod != nil {
			onPeriod(p.alloc, p.stats, nil)
		}
	}
	for k := 0; count <= 0 || k < count; k++ {
		if err := ctx.Err(); err != nil {
			if pend != nil {
				// The pending period's push never launched; like any
				// cancelled period it goes unrecorded.
				pend.root.End(err)
			}
			return err
		}
		start := time.Now()
		stats := PeriodStats{RacksServed: len(w.tier.children)}
		var pt *flightrec.PeriodTrace
		if w.recorder.Enabled() {
			pt = flightrec.NewPeriodTrace()
		}
		root := pt.StartSpan("period", "room", "")
		if log := w.tier.log; log != nil {
			log.Debug("control period start", "racks", len(w.tier.children), "pipelined", true)
		}

		// Launch the previous period's push wave concurrently with this
		// period's gather. The two waves use separate fan engines but
		// share the RPC concurrency limiter.
		if pend != nil {
			p := pend
			p.done = make(chan struct{})
			go func() {
				pushStart := time.Now()
				w.pushPhase(ctx, p.pt, p.root.ID(), p.alloc, &p.stats)
				p.push = time.Since(pushStart)
				close(p.done)
			}()
		}

		gatherStart := time.Now()
		gerr := w.gatherPhase(ctx, pt, root.ID())
		gatherElapsed := time.Since(gatherStart)

		// Join the overlapped push before touching the holds or the
		// engine: allocation k must not race push k-1.
		if pend != nil {
			<-pend.done
			overlap := pend.push
			if gatherElapsed < overlap {
				overlap = gatherElapsed
			}
			pend.stats.Overlap = overlap
			w.met.pipelineOverlap.Observe(overlap.Seconds())
			finish(pend)
			pend = nil
		}
		if gerr != nil {
			// Cancelled mid-gather: shutdown is not a period.
			return gerr
		}

		alloc := w.allocPhase(pt, root.ID(), &stats)
		pend = &pendingPeriod{start: start, pt: pt, root: root, alloc: alloc, stats: stats}
	}
	// Drain the last period's push synchronously.
	if pend != nil {
		w.pushPhase(ctx, pend.pt, pend.root.ID(), pend.alloc, &pend.stats)
		finish(pend)
	}
	return nil
}

// commitPeriod publishes the period's results under mu. It runs on every
// completed period, including allocation failures, so the periods counter
// and the last-period stats never go stale while things break.
func (w *RoomWorker) commitPeriod(alloc *core.Allocation, stats PeriodStats) {
	w.mu.Lock()
	if alloc != nil {
		w.lastAlloc = alloc
	}
	w.lastStats = stats
	w.periods++
	w.mu.Unlock()
	w.met.periods.Inc()
}

// recordPeriod writes one completed period (successful or failed at
// allocation) into the flight recorder. Periods aborted by context
// cancellation are never recorded.
func (w *RoomWorker) recordPeriod(pt *flightrec.PeriodTrace, start time.Time, stats PeriodStats, alloc *core.Allocation, err error) {
	if pt == nil {
		return
	}
	rec := flightrec.PeriodRecord{
		TraceID:      pt.TraceID(),
		Start:        start,
		Duration:     stats.Elapsed,
		Label:        "room",
		GatherErrors: stats.GatherErrors,
		ApplyErrors:  stats.ApplyErrors,
		BudgetsHeld:  stats.BudgetsHeld,
		Spans:        pt.Spans(),
		Explains:     pt.Explains(),
	}
	if err != nil {
		rec.Err = err.Error()
	}
	if alloc != nil {
		rec.Infeasible = alloc.Infeasible
	}
	if stats.Fleet.Racks > 0 {
		rec.Fleet = &flightrec.FleetNote{
			Racks:              stats.Fleet.Racks,
			PowerWatts:         stats.Fleet.PowerWatts,
			BudgetWatts:        stats.Fleet.BudgetWatts,
			HeadroomWatts:      stats.Fleet.HeadroomWatts,
			WorstHeadroomWatts: stats.Fleet.WorstHeadroomWatts,
			WorstHeadroomRack:  stats.Fleet.WorstHeadroomRack,
			ViolatingRacks:     stats.Fleet.ViolatingRacks,
			OutlierRacks:       stats.Fleet.OutlierRacks,
		}
	}
	w.recorder.Add(rec)
}

// evalSLO runs one alert-engine evaluation against the period just
// recorded, feeding the tracker every rack's staleness counter. It runs
// after recordPeriod so alert transitions annotate the current period's
// flight-recorder record. Nil tracker no-ops.
func (w *RoomWorker) evalSLO() {
	if w.slo == nil {
		return
	}
	t := w.tier
	t.mu.Lock()
	samples := make([]slo.Sample, 0, len(t.children))
	for i := range t.children {
		samples = append(samples, slo.Sample{
			Signal: slo.SignalRackStalePeriods,
			Label:  t.children[i].id,
			Value:  float64(t.children[i].stale),
		})
	}
	t.mu.Unlock()
	w.slo.EvalPeriod(w.slo.Uptime(), samples...)
}

// Run executes control periods on the given cadence until the context is
// cancelled, reporting each period's stats to onPeriod (may be nil). A
// period aborted by cancellation is not reported — shutdown produces no
// spurious rack-failure stats.
func (w *RoomWorker) Run(ctx context.Context, period time.Duration, onPeriod func(PeriodStats, error)) {
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		if ctx.Err() != nil {
			return
		}
		_, stats, err := w.RunPeriod(ctx)
		if ctx.Err() != nil {
			return
		}
		if onPeriod != nil {
			onPeriod(stats, err)
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// LastAllocation returns the room's most recent upper-tree allocation.
func (w *RoomWorker) LastAllocation() *core.Allocation {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastAlloc
}

// LastStats returns the statistics of the most recent control period (the
// zero value before the first period).
func (w *RoomWorker) LastStats() PeriodStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastStats
}

// FleetReport returns the latest fleet digest rollup for the /debug/fleet
// endpoint. ok is false until the first gather wave completes, or always
// when digests are disabled.
func (w *RoomWorker) FleetReport() (fleetobs.Report, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.tier.digests || w.fleetWaves == 0 {
		return fleetobs.Report{}, false
	}
	return fleetobs.Report{
		Period:  w.fleetWaves,
		Time:    w.fleetTime,
		Summary: w.pubFleet.Summary(),
		Fleet:   w.pubFleet.Clone(),
	}, true
}

// FleetHistory returns the per-period fleet sample ring backing
// /debug/fleet/history (nil when digests are disabled).
func (w *RoomWorker) FleetHistory() *fleetobs.History {
	return w.history
}

// RackFreshness describes one rack's gather freshness, as reported in the
// /healthz detail body.
type RackFreshness struct {
	// StalePeriods counts consecutive control periods since the rack's
	// last successful gather (0 = fresh last period).
	StalePeriods int `json:"stale_periods"`
	// EverGathered reports whether any gather has ever succeeded.
	EverGathered bool `json:"ever_gathered"`
	// Held reports whether the rack's budget pushes are currently held.
	Held bool `json:"held"`
	// LastBudget is the budget the rack most recently acknowledged: the
	// last push that succeeded. Held racks and failed pushes leave it
	// unchanged, so it is the budget the rack is still enforcing.
	LastBudget power.Watts `json:"last_budget_watts"`
}

// RackFreshness returns per-rack freshness detail for health reporting.
// It never blocks on in-flight rack RPCs.
func (w *RoomWorker) RackFreshness() map[string]RackFreshness {
	t := w.tier
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]RackFreshness, len(t.children))
	for i := range t.children {
		ch := &t.children[i]
		out[ch.id] = RackFreshness{
			StalePeriods: ch.stale,
			EverGathered: ch.seen,
			Held:         ch.held,
			LastBudget:   ch.acked,
		}
	}
	return out
}

// Healthy reports the room worker's health for a /healthz endpoint: nil
// while the worker can still see at least one rack. It returns an error
// once a completed control period gathered zero fresh summaries — the
// room is then flying blind on stale data. Before the first period the
// worker reports healthy (starting up). It never blocks on in-flight rack
// RPCs.
func (w *RoomWorker) Healthy() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.periods == 0 {
		return nil
	}
	if w.lastStats.RacksServed > 0 && w.lastStats.GatherErrors >= w.lastStats.RacksServed {
		return fmt.Errorf("all %d rack gathers failed last control period", w.lastStats.RacksServed)
	}
	return nil
}

// Degraded reports reduced-but-serving conditions for a warn-level
// /healthz check: nil while every rack is fresh, an error when some
// racks are stale or their budget pushes are held while the room can
// still see at least one rack. (When the room sees nothing at all,
// Healthy reports that — a critical condition, not a degraded one.)
// Before the first period the worker reports undegraded (starting up).
// It never blocks on in-flight rack RPCs.
func (w *RoomWorker) Degraded() error {
	w.mu.Lock()
	periods := w.periods
	w.mu.Unlock()
	if periods == 0 {
		return nil
	}
	t := w.tier
	t.mu.Lock()
	defer t.mu.Unlock()
	stale, held := 0, 0
	for i := range t.children {
		if t.children[i].isStale() {
			stale++
		}
		if t.children[i].held {
			held++
		}
	}
	if stale == 0 && held == 0 {
		return nil
	}
	return fmt.Errorf("%d rack(s) on stale summaries, %d held", stale, held)
}

package controlplane

import (
	"context"
	"sync"
	"time"

	"capmaestro/internal/core"
	"capmaestro/internal/fleetobs"
	"capmaestro/internal/flightrec"
	"capmaestro/internal/power"
)

// Aggregator is a mid-level worker, enabling the "arbitrary arrangement of
// a multi-level worker hierarchy" the paper's implementation supports
// (Section 5): toward its parent it behaves like a rack worker (gather a
// summary, accept a budget); toward its children it runs the same control
// tier as the room worker, with the same failure semantics (see
// RoomWorker), applied to its children. A
// large data center can stack aggregators — e.g. room → row → rack —
// without any level seeing more than its direct children's summaries.
// BuildHierarchy stacks them automatically from a flat rack set. Per-child
// gather and push error counts surface through LastStats and the
// per-level telemetry families, not just logs.
//
// Neither pass holds a lock during network I/O: Gather takes the tier's
// runMu only to commit, summarize and fold, and ApplyBudget only to run
// the engine and configure its wave, so a pipelined parent's push(k) and
// gather(k+1) overlap their I/O at every tier. The accessors take only mu.
type Aggregator struct {
	tier  *tier
	met   aggMetrics
	level int

	// gatherMu serializes Gather passes and guards lastUnseen/lastStale;
	// pushMu serializes ApplyBudget passes. Each is acquired before the
	// tier's locks, never the other way around.
	gatherMu   sync.Mutex
	lastUnseen int // gauge deltas: same-level aggregators share instruments
	lastStale  int
	pushMu     sync.Mutex

	mu         sync.Mutex
	lastBudget power.Watts
	lastAlloc  *core.Allocation
	lastStats  PeriodStats
}

// NewAggregator creates a mid-level worker over the given subtree, whose
// proxy nodes stand for the downstream workers in clients. Options
// configure telemetry (labeled by WithHierarchyLevel), logging, staleness
// bound, failsafe budget, and RPC concurrency, exactly as on a room
// worker.
func NewAggregator(tree *core.Node, policy core.Policy, clients map[string]RackClient, opts ...Option) (*Aggregator, error) {
	o := buildOptions(opts)
	log := o.log
	if log != nil && tree != nil {
		log = log.With("aggregator", tree.ID)
	}
	t, err := newTier("aggregator", "child", tree, policy, clients, &o, log)
	if err != nil {
		return nil, err
	}
	level := o.level
	if level <= 0 {
		level = 1
	}
	a := &Aggregator{tier: t, met: newAggMetrics(o.reg, level), level: level, lastUnseen: len(t.children)}
	t.met = a.met.tier
	a.met.unseenChildren.Add(float64(len(t.children)))
	return a, nil
}

// ID returns the aggregator's identifier (its subtree root's node ID).
func (a *Aggregator) ID() string { return a.tier.id }

// Gather implements RackClient: it collects fresh summaries from the
// downstream workers — bounded concurrency, batched where the transport
// allows — installs them into the proxies, and reports the combined
// subtree summary upstream. Downstream workers that fail keep their
// previous summaries; the failure count lands in LastStats.GatherErrors
// and the per-level error counter.
func (a *Aggregator) Gather(ctx context.Context) (core.Summary, error) {
	s, _, err := a.GatherDigest(ctx)
	return s, err
}

// GatherDigest implements DigestGatherer: one gather pass that also folds
// the children's fleet digests into a single subtree digest. Children that
// sent no digest (digest-less transports) are synthesized from their
// summaries and last acknowledged budgets, so the rollup covers every
// child that gathered successfully either way. The returned digest points
// into per-aggregator scratch and is valid until the next gather pass,
// which the control plane's phase ordering guarantees is after the parent
// has folded it.
func (a *Aggregator) GatherDigest(ctx context.Context) (core.Summary, *fleetobs.StatDigest, error) {
	a.gatherMu.Lock()
	defer a.gatherMu.Unlock()
	if err := ctx.Err(); err != nil {
		return core.Summary{}, nil, err
	}
	t := a.tier
	start := time.Now()
	pt := flightrec.TraceFrom(ctx)
	span := pt.StartSpan("agg.gather", t.id, flightrec.ParentIDFrom(ctx))
	t.gather(ctx, pt, span.ID())

	t.runMu.Lock()
	n := t.commit()
	s := t.engine.Summarize(t.policy)
	var dig *fleetobs.StatDigest
	if t.digests {
		dig, _ = t.foldDigest(a.level)
	}
	t.runMu.Unlock()
	a.met.unseenChildren.Add(float64(n.unseen - a.lastUnseen))
	a.met.staleChildren.Add(float64(n.stale - a.lastStale))
	a.lastUnseen, a.lastStale = n.unseen, n.stale
	a.mu.Lock()
	a.lastStats = PeriodStats{
		RacksServed:  len(t.children),
		GatherErrors: n.errors,
		Elapsed:      time.Since(start),
	}
	a.mu.Unlock()
	span.End(nil)
	a.met.gatherSeconds.ObserveSince(start)
	return s, dig, nil
}

// ApplyBudget implements RackClient: it allocates the received budget over
// its subtree on the persistent engine and pushes each downstream worker
// its share — bounded, batched, skipping held children. Held children
// (never gathered, or stale beyond the bound) keep whatever budget they
// already enforce; their count lands in LastStats.BudgetsHeld. The first
// push error is returned so the parent's apply accounting sees the
// failure; the full count lands in LastStats.ApplyErrors.
func (a *Aggregator) ApplyBudget(ctx context.Context, b power.Watts) error {
	a.pushMu.Lock()
	defer a.pushMu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	t := a.tier
	start := time.Now()
	pt := flightrec.TraceFrom(ctx)
	span := pt.StartSpan("agg.apply", t.id, flightrec.ParentIDFrom(ctx))

	// The engine run and the wave's hold decisions must see the same
	// gather; the push I/O needs neither, so runMu is released before it.
	t.runMu.Lock()
	alloc := t.allocate(pt, b)
	held := t.preparePush(alloc)
	t.runMu.Unlock()
	applyErrors, firstErr := t.push(ctx, pt, span.ID())
	span.End(firstErr)
	a.met.pushSeconds.ObserveSince(start)

	a.mu.Lock()
	a.lastBudget = b
	a.lastAlloc = alloc
	a.lastStats.ApplyErrors = applyErrors
	a.lastStats.BudgetsHeld = held
	a.lastStats.Elapsed += time.Since(start)
	a.mu.Unlock()
	if t.log != nil && (applyErrors > 0 || held > 0) {
		t.log.Warn("aggregator apply degraded",
			"apply_errors", applyErrors, "budgets_held", held)
	}
	return firstErr
}

// LastBudget returns the budget most recently received from upstream.
func (a *Aggregator) LastBudget() power.Watts {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastBudget
}

// LastAllocation returns the most recent subtree allocation.
func (a *Aggregator) LastAllocation() *core.Allocation {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastAlloc
}

// LastStats returns the combined statistics of the aggregator's most
// recent gather and apply passes: GatherErrors and RacksServed from the
// last Gather, ApplyErrors and BudgetsHeld from the last ApplyBudget, and
// Elapsed summing both passes. The zero value before the first gather.
func (a *Aggregator) LastStats() PeriodStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastStats
}

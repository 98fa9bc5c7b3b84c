package controlplane

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"sync"

	"capmaestro/internal/core"
	"capmaestro/internal/fleetobs"
	"capmaestro/internal/flightrec"
	"capmaestro/internal/power"
	"capmaestro/internal/telemetry"
)

// holdReason explains why a child's budget push was withheld.
type holdReason string

const (
	holdNeverSeen holdReason = "never-gathered"
	holdStale     holdReason = "stale-summary"
)

// tier is one level of the control plane's metrics-up / budgets-down step
// (Section 5), shared by its two faces: RoomWorker, the top of the
// hierarchy, and Aggregator, which looks like a rack to its parent. A tier
// owns a tree whose proxy nodes stand for its child workers, the
// persistent engine that budgets that tree, the fan-out engines that
// gather from and push to the children, and each child's freshness. It
// implements the failure semantics documented on RoomWorker for both
// faces.
//
// Locking: runMu guards the proxies and the engine; mu guards each
// child's freshness and is taken after runMu when both are needed.
// Neither is held across child RPCs. Only commit changes whether a child
// is seen or stale, under both locks, so holding either one keeps a
// child's hold decision stable. The fan engines and the
// digest merger are pass-scoped: one gather pass (gather, commit,
// foldDigest) may overlap one push pass (preparePush, push), but two
// passes of the same kind never run at once — the room's period lock and
// the aggregator's gatherMu/pushMu guarantee it.
type tier struct {
	id       string
	policy   core.Policy
	children []tierChild // sorted by ID: deterministic wave order

	log            *slog.Logger
	child          string // how errors and log lines name a child
	stalenessBound int
	failsafe       power.Watts
	met            tierMetrics

	runMu  sync.Mutex
	engine *core.Allocator

	// gatherF and pushF share one limiter, so a push wave and the next
	// gather wave can overlap without exceeding the RPC bound. Every wave
	// adds the children in order, so calls[i] is children[i]'s call.
	// digests enables the fleet rollup: gathers collect child digests and
	// dm folds them, reusing its scratch every pass.
	gatherF *fanEngine
	pushF   *fanEngine
	digests bool
	dm      digestMerger

	mu sync.Mutex
}

// tierChild is one child's slot in its tier.
type tierChild struct {
	id     string
	client RackClient
	proxy  *core.Node

	// Freshness, guarded by mu.
	seen     bool        // at least one good gather
	down     bool        // the last gather failed
	held     bool        // the last commit held its pushes
	stale    int         // consecutive failed gathers
	acked    power.Watts // budget the child last acknowledged
	hasAcked bool
}

// hold reports why the child's budget pushes are held, or "" when they
// are not: a child never gathered is held, and so is one whose summary is
// more than bound periods old (bound <= 0 disables that hold).
func (c *tierChild) hold(bound int) holdReason {
	switch {
	case !c.seen:
		return holdNeverSeen
	case bound > 0 && c.stale > bound:
		return holdStale
	}
	return ""
}

// isStale reports whether the child rides a summary from an earlier
// wave: it has reported before, but not in the last one.
func (c *tierChild) isStale() bool { return c.seen && c.stale > 0 }

// tierMetrics are the instruments the shared tier code records into. Each
// face binds them to its own metric families; a nil handle, or a child
// missing from a per-child map, records nothing.
type tierMetrics struct {
	gatherErrors  *telemetry.Counter
	applyErrors   *telemetry.Counter
	heldPushes    *telemetry.Counter
	staleByChild  map[string]*telemetry.Gauge
	budgetByChild map[string]*telemetry.Gauge
}

// newTier validates tree against clients and builds the tier; the face
// binds its metrics afterwards. kind names the face in errors ("room",
// "aggregator"); child names a child in errors and log lines ("rack",
// "child").
func newTier(kind, child string, tree *core.Node, policy core.Policy, clients map[string]RackClient, o *options, log *slog.Logger) (*tier, error) {
	if tree == nil {
		return nil, fmt.Errorf("controlplane: nil %s tree", kind)
	}
	if err := tree.Validate(); err != nil {
		return nil, fmt.Errorf("controlplane: %s tree: %w", kind, err)
	}
	proxies := make(map[string]*core.Node)
	tree.Walk(func(n *core.Node) {
		if n.Proxy != nil {
			proxies[n.ID] = n
		}
	})
	if len(proxies) == 0 {
		return nil, fmt.Errorf("controlplane: %s tree has no proxies", kind)
	}
	for id := range clients {
		if _, ok := proxies[id]; !ok {
			return nil, fmt.Errorf("controlplane: %s client %q has no proxy node", child, id)
		}
	}
	for id := range proxies {
		if _, ok := clients[id]; !ok {
			return nil, fmt.Errorf("controlplane: proxy node %q has no %s client", id, child)
		}
	}
	engine, err := core.NewAllocator(tree)
	if err != nil {
		return nil, fmt.Errorf("controlplane: %s tree: %w", kind, err)
	}
	children := make([]tierChild, 0, len(clients))
	for id, c := range clients {
		children = append(children, tierChild{id: id, client: c, proxy: proxies[id]})
	}
	sort.Slice(children, func(i, j int) bool { return children[i].id < children[j].id })
	lim := newLimiter(o.rpcConcurrency)
	t := &tier{
		id: tree.ID, policy: policy, children: children,
		log: log, child: child,
		stalenessBound: o.stalenessBound,
		failsafe:       o.failsafeBudget,
		engine:         engine,
		gatherF:        newFanEngine(lim, len(children)),
		pushF:          newFanEngine(lim, len(children)),
		digests:        o.digests == nil || *o.digests,
	}
	t.gatherF.digests = t.digests
	return t, nil
}

// failsafeSummary is the conservative stand-in for a child that has never
// reported: the tier reserves exactly b watts for it — floor (CapMin) and
// ceiling (Constraint) — without pretending to know anything about its
// load or priorities.
func failsafeSummary(b power.Watts) core.Summary {
	s := core.NewSummary()
	s.SetLevel(0, b, b, b)
	s.Constraint = b
	return s
}

// gather runs one gather wave over every child — bounded concurrency,
// batched where the transport allows, no lock held — into the gather
// engine's call slots, for commit and foldDigest to read.
func (t *tier) gather(ctx context.Context, pt *flightrec.PeriodTrace, parentID string) {
	e := t.gatherF
	e.reset()
	for i := range t.children {
		e.add(t.children[i].id, t.children[i].client)
	}
	e.gatherWave(ctx, pt, parentID)
}

// gatherCounts describes one committed gather wave.
type gatherCounts struct {
	errors int // children whose gather failed
	unseen int // children never gathered, held
	stale  int // children beyond the staleness bound, held
}

// commit records the last gather wave: it installs fresh summaries into
// the proxies, updates each child's freshness (logging down/recovered and
// held/resumed transitions), and reserves the failsafe budget for
// never-seen children. Failed children keep their previous summary.
// Caller holds runMu.
func (t *tier) commit() gatherCounts {
	var n gatherCounts
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.children {
		ch, call := &t.children[i], &t.gatherF.calls[i]
		if call.err != nil {
			n.errors++
			ch.stale++
			t.met.staleByChild[ch.id].Set(float64(ch.stale))
			if !ch.down {
				ch.down = true
				if t.log != nil {
					t.log.Warn(t.child+" gather failed", t.child, ch.id, "err", call.err)
				}
			}
		} else {
			*ch.proxy.Proxy = call.summary
			ch.seen = true
			if ch.down {
				ch.down = false
				if t.log != nil {
					t.log.Info(t.child+" recovered", t.child, ch.id, "stale_periods", ch.stale)
				}
			}
			if ch.stale != 0 {
				ch.stale = 0
				t.met.staleByChild[ch.id].Set(0)
			}
		}

		reason := ch.hold(t.stalenessBound)
		switch reason {
		case holdNeverSeen:
			n.unseen++
			if t.failsafe > 0 {
				*ch.proxy.Proxy = failsafeSummary(t.failsafe)
			}
		case holdStale:
			n.stale++
		}
		if held := reason != ""; held != ch.held {
			ch.held = held
			switch {
			case t.log == nil:
			case held:
				t.log.Warn(t.child+" budget held", t.child, ch.id, "reason", string(reason))
			default:
				t.log.Info(t.child+" budget pushes resumed", t.child, ch.id)
			}
		}
	}
	t.met.gatherErrors.Add(float64(n.errors))
	return n
}

// foldDigest merges the last gather wave's child digests into the tier's
// scratch rollup, valid until the next fold. Children that sent no digest
// are synthesized from their summary and last acknowledged budget, so the
// rollup stays watt-for-watt complete over digest-less transports.
// Children that failed the wave count as gather errors and, when riding a
// stale summary, become stale outliers rather than being summed from
// stale watts. level labels the tier's own row (0 = one above its
// children's rows); the row is returned too. Caller holds runMu.
func (t *tier) foldDigest(level int) (*fleetobs.StatDigest, fleetobs.LevelStats) {
	t.dm.reset()
	own := fleetobs.LevelStats{Level: level, Workers: len(t.children)}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.children {
		ch, call := &t.children[i], &t.gatherF.calls[i]
		if ch.held {
			own.Held++
		}
		if ch.isStale() {
			own.Stale++
		}
		if call.err != nil {
			own.GatherErrors++
			continue
		}
		t.dm.note(ch.id, call.digest, &call.summary, ch.acked, ch.hasAcked)
		own.GatherLatency.Observe(fleetobs.LatencyBounds, call.elapsed.Seconds())
	}
	dig := t.dm.fold(own)
	// Staleness is the observer's judgment — a child never reports itself
	// stale — so stale children become outlier entries after the fold.
	for i := range t.children {
		if ch := &t.children[i]; ch.isStale() {
			dig.AddOutlier(fleetobs.Outlier{
				Rack:         ch.id,
				Reason:       fleetobs.ReasonStale,
				Score:        2 + float64(ch.stale),
				StalePeriods: ch.stale,
			})
		}
	}
	return dig, own
}

// allocate runs the budgeting phase for budget b on the persistent engine,
// with pt's explain sink attached, and returns its snapshot. Caller holds
// runMu.
func (t *tier) allocate(pt *flightrec.PeriodTrace, b power.Watts) *core.Allocation {
	t.engine.SetExplainSink(pt.ExplainSink())
	t.engine.Run(b, t.policy)
	t.engine.SetExplainSink(nil)
	return t.engine.Snapshot()
}

// preparePush loads the push engine with every child's budget from alloc,
// skipping held children, and returns how many it held. The per-child
// budget gauge reports every assigned budget, held or not. Caller holds
// runMu, so the holds match the gather the allocation was computed from;
// before the first gather every child is held.
func (t *tier) preparePush(alloc *core.Allocation) int {
	e := t.pushF
	e.reset()
	held := 0
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.children {
		ch := &t.children[i]
		b := alloc.NodeBudgets[ch.id]
		t.met.budgetByChild[ch.id].Set(float64(b))
		call := e.add(ch.id, ch.client)
		if ch.hold(t.stalenessBound) != "" {
			call.skip = true
			held++
			continue
		}
		call.budget = b
		if ch.hasAcked && t.log != nil &&
			math.Abs(float64(b-ch.acked)) > float64(DefaultBudgetLogDelta) {
			t.log.Info(t.child+" budget changed", t.child, ch.id,
				"old", float64(ch.acked), "new", float64(b))
		}
	}
	t.met.heldPushes.Add(float64(held))
	return held
}

// push runs the wave preparePush configured — bounded, batched, no lock
// held across RPCs — records each budget a child acknowledged, and
// returns the number of failed pushes and the first failure.
func (t *tier) push(ctx context.Context, pt *flightrec.PeriodTrace, parentID string) (int, error) {
	e := t.pushF
	e.pushWave(ctx, pt, parentID)
	failed := 0
	var firstErr error
	t.mu.Lock()
	for i := range e.calls {
		call := &e.calls[i]
		switch {
		case call.skip:
		case call.err != nil:
			failed++
			if firstErr == nil {
				firstErr = call.err
			}
		default:
			t.children[i].acked, t.children[i].hasAcked = call.budget, true
		}
	}
	t.mu.Unlock()
	t.met.applyErrors.Add(float64(failed))
	return failed, firstErr
}

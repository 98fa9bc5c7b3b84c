package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"capmaestro/internal/flightrec"
	"capmaestro/internal/scenario"
	"capmaestro/internal/sim"
	"capmaestro/internal/slo"
)

// simShape is the generated feed-failure fleet and schedule.
type simShape struct {
	rpps, racks, servers int // racks per RPP, servers per rack
	cycles               int // feed X fail/restore cycles
	cycleSec             int // simulated seconds per cycle
}

var (
	feedFailureShape = simShape{rpps: 4, racks: 8, servers: 10, cycles: 3, cycleSec: 120}
	feedFailureToy   = simShape{rpps: 2, racks: 2, servers: 3, cycles: 1, cycleSec: 96}
)

const (
	// Breaker ratings per side. With feed X down the Y side carries the
	// whole load: at the mean utilization about 102 % of a rack rating
	// (up to ~110 % on the busiest racks) and 97 % of an RPP rating. The
	// 80 % derated limits still cover every server's cap floor, so the
	// fleet stays feasible while the low-priority servers absorb the cut.
	simRackRatingPerServer = 400.0
	simRPPRatingPerRack    = 4200.0
	// Priorities: 2 is high, 1 is low; highShare of servers are high.
	simHigh, simLow = 2, 1
	// faultSec is how long feed X stays down in each cycle.
	faultSec = 48
	// minMargin is the paper's time-to-safe margin over the breaker's
	// trip time.
	minMargin = 10
)

// genScenario generates the feed-failure scenario file from the seed:
// utilizations in [0.55, 0.95], X shares in [0.42, 0.58], a third of the
// servers at high priority, and per cycle one feed X failure at a random
// second, restored faultSec later. The fixed fault length keeps the
// simulated work the same for every seed.
func genScenario(shape simShape, seed int64) *scenario.File {
	rng := rand.New(rand.NewSource(seed))
	f := &scenario.File{
		Name: fmt.Sprintf("feed-failure-seed%d", seed),
		Fleet: scenario.FleetSpec{
			Policy:      "global",
			SPO:         true,
			DurationSec: shape.cycles*shape.cycleSec + scenario.DefaultControlPeriodSec*3,
		},
	}
	for p := 0; p < shape.rpps; p++ {
		rpp := scenario.RPPSpec{XRating: simRPPRatingPerRack * float64(shape.racks), YRating: simRPPRatingPerRack * float64(shape.racks)}
		for r := 0; r < shape.racks; r++ {
			rating := simRackRatingPerServer * float64(shape.servers)
			rpp.Racks = append(rpp.Racks, scenario.RackSpec{XRating: rating, YRating: rating})
			for s := 0; s < shape.servers; s++ {
				prio := simLow
				if rng.Float64() < highShare {
					prio = simHigh
				}
				f.Fleet.Servers = append(f.Fleet.Servers, scenario.ServerSpec{
					ID:  fmt.Sprintf("p%d-r%d-s%d", p, r, s),
					RPP: p, Rack: r, Priority: prio,
					XShare:      0.42 + 0.16*rng.Float64(),
					Utilization: 0.55 + 0.40*rng.Float64(),
				})
			}
		}
		f.Fleet.Topology.RPPs = append(f.Fleet.Topology.RPPs, rpp)
	}
	for c := 0; c < shape.cycles; c++ {
		fail := c*shape.cycleSec + 8 + rng.Intn(24)
		restore := fail + faultSec
		f.Events = append(f.Events,
			scenario.Event{AtSec: fail, Kind: scenario.EventFailFeed, Feed: scenario.FeedX},
			scenario.Event{AtSec: restore, Kind: scenario.EventRestoreFeed, Feed: scenario.FeedX})
	}
	f.Assertions = []scenario.Assertion{
		{Kind: scenario.AssertNoTrips},
		{Kind: scenario.AssertNoViolations},
		{Kind: scenario.AssertFeasible},
		{Kind: scenario.AssertBudgetsMatchOracle},
		{Kind: scenario.AssertTimeToSafe, MinMargin: minMargin},
	}
	return f
}

// checkReport counts the assertions of one scenario run.
func checkReport(o *outcome, rep *scenario.RunReport) {
	o.attempted += int64(len(rep.Results))
	for _, r := range rep.Results {
		if !r.Pass {
			o.fail("assertion %s: %s", r.Kind, r.Error)
		}
	}
}

// simOutcomes are the paper's safety and priority outcomes of one run.
type simOutcomes struct {
	timeToSafe float64 // longest closed exposure window, simulated seconds
	hp, lp     float64 // mean perf level of high / low priority servers while feed X is down
}

// replay runs the scenario as scenario.RunFile does, with the same calls
// in the same order. With a recorder it records a span around every
// simulated second, probe sample and the evaluation. With sample set it
// also averages each priority's PerfLevel over the seconds feed X is
// down, outside any span.
func replay(f *scenario.File, rec *recorder, pass int64, sample bool) (*scenario.RunReport, simOutcomes, error) {
	var out simOutcomes
	root := int32(noParent)
	if rec != nil {
		root = rec.begin(spanScenario, pass, 0, noParent)
		defer rec.end(root)
	}
	if err := f.Validate(); err != nil {
		return nil, out, err
	}
	sc, err := f.Scenario()
	if err != nil {
		return nil, out, err
	}
	frec := flightrec.NewRecorder(flightrec.DefaultBufferSize)
	tracker, err := slo.New(slo.Config{Recorder: frec})
	if err != nil {
		return nil, out, err
	}
	s, err := sc.BuildSimInstrumented(scenario.SimInstruments{SLO: tracker, FlightRecorder: frec})
	if err != nil {
		return nil, out, err
	}
	probe := scenario.NewProbe(f)
	period := time.Duration(sc.ControlPeriodSec) * time.Second
	var perf perfSampler
	for t := 0; t < sc.DurationSec; t++ {
		name := spanSimSecond
		if s.Now()%period == 0 {
			name = spanSimControlSecond
		}
		if rec == nil {
			s.Run(time.Second)
			probe.Sample(s)
		} else {
			start := rec.now()
			s.Run(time.Second)
			mid := rec.now()
			probe.Sample(s)
			end := rec.now()
			rec.add(name, int64(t), 0, root, start, mid)
			rec.add(spanProbe, int64(t), 0, root, mid, end)
		}
		if sample && s.FeedFailed(scenario.FeedX) {
			perf.sample(s)
		}
	}
	start := int64(0)
	if rec != nil {
		start = rec.now()
	}
	rep := scenario.Evaluate(f, s, tracker, probe)
	if rec != nil {
		rec.add(spanEvaluate, pass, 0, root, start, rec.now())
	}
	for _, w := range tracker.ClosedWindows() {
		out.timeToSafe = math.Max(out.timeToSafe, w.DurationSec)
	}
	out.hp, out.lp = perf.mean(simHigh), perf.mean(simLow)
	return rep, out, nil
}

// perfSampler accumulates per-priority PerfLevel sums.
type perfSampler struct {
	sum [simHigh + 1]float64
	n   [simHigh + 1]int
}

func (p *perfSampler) sample(s *sim.Simulator) {
	for _, id := range s.ServerIDs() {
		srv := s.Server(id)
		pr := int(srv.Priority())
		if pr >= 0 && pr < len(p.sum) {
			p.sum[pr] += srv.PerfLevel()
			p.n[pr]++
		}
	}
}

func (p *perfSampler) mean(prio int) float64 { return ratio(p.sum[prio], float64(p.n[prio])) }

func runFeedFailure(cfg config) (*outcome, error) {
	shape := feedFailureShape
	if cfg.toy {
		shape = feedFailureToy
	}
	o := newOutcome()
	f := genScenario(shape, cfg.seed)
	durationSec := float64(f.Fleet.DurationSec)
	o.logf("scenario: %d servers, %d s horizon, %d feed X fail/restore cycles, SPO on, global policy",
		len(f.Fleet.Servers), f.Fleet.DurationSec, shape.cycles)

	// Stand-up: validate and lower the scenario, then one warm-up run.
	var last *scenario.RunResult
	cal := newCalibrator()
	setups := make([]time.Duration, setupRepeats)
	setupStarts := make([]time.Time, setupRepeats)
	for i := range setups {
		runtime.GC()
		cal.sample()
		setupStarts[i] = time.Now()
		var err error
		if setups[i], err = timeIt(func() error {
			if err := f.Validate(); err != nil {
				return err
			}
			if _, err := f.Scenario(); err != nil {
				return err
			}
			last, err = scenario.RunFile(f, scenario.RunOptions{})
			return err
		}); err != nil {
			return nil, err
		}
	}
	checkReport(o, last.Report)

	measured := cfg.seconds
	if cfg.trace {
		measured /= 2
	}
	var (
		runStarts []time.Time
		runs      []time.Duration
	)
	deadline := time.Now().Add(measured)
	for len(runs) == 0 || time.Now().Before(deadline) {
		cal.maybe()
		start := time.Now()
		res, err := scenario.RunFile(f, scenario.RunOptions{})
		if err != nil {
			return nil, err
		}
		runStarts = append(runStarts, start)
		runs = append(runs, time.Since(start))
		checkReport(o, res.Report)
		last = res
	}
	cal.sample()
	speedup := windowRate(runs, durationSec)
	o.logf("scenario runs: %d, sim speedup %.1f simulated s per host s", len(runs), speedup)

	// The outcomes are deterministic per scenario: one untimed replay
	// samples them and must reproduce RunFile's verdicts.
	rep, out, err := replay(f, nil, 0, true)
	if err != nil {
		return nil, err
	}
	checkReport(o, rep)
	if rep.Passed != last.Report.Passed {
		o.fail("replay passed %d assertions, RunFile %d", rep.Passed, last.Report.Passed)
	}
	o.logf("time to safe %.0f s (longest window), high-priority perf %.4f, low-priority perf %.4f while feed X is down",
		out.timeToSafe, out.hp, out.lp)

	if !cfg.trace {
		setupMetric(o, cal, setupStarts, setups)
		stepMetrics(o, cal, runStarts, runs, runs, durationSec)
		o.metrics["live_heap_mb"] = liveHeapMiB()
		runtime.KeepAlive(last)
		return o, nil
	}

	rec := newRecorder()
	rt0 := readRuntime()
	var replays []time.Duration
	deadline = time.Now().Add(measured)
	for pass := int64(0); pass == 0 || time.Now().Before(deadline); pass++ {
		start := time.Now()
		rep, _, err := replay(f, rec, pass, false)
		if err != nil {
			return nil, err
		}
		replays = append(replays, time.Since(start))
		checkReport(o, rep)
	}
	rt := rt0.to(readRuntime())
	tot := totals(rec.snapshot())
	simSeconds := durationSec * float64(len(replays))
	o.metrics["sim.second_us"] = tot[spanSimSecond].meanUs()
	o.metrics["sim.control_second_us"] = tot[spanSimControlSecond].meanUs()
	o.metrics["sim.control_periods"] = float64(tot[spanSimControlSecond].count) / float64(len(replays))
	o.metrics["scenario.probe_us"] = tot[spanProbe].meanUs()
	o.metrics["scenario.evaluate_ms"] = tot[spanEvaluate].meanUs() / 1000
	o.metrics["mem.allocs_per_sim_second"] = rt.allocs / simSeconds
	o.metrics["gc.cpu_fraction"] = rt.gcCPUFraction
	o.metrics["sim.time_to_safe_s"] = out.timeToSafe
	o.metrics["sim.hp_throughput"] = out.hp
	o.metrics["sim.lp_throughput"] = out.lp
	tracedSpeedup := windowRate(replays, durationSec)
	o.metrics["trace.overhead_ratio"] = tracedSpeedup / speedup
	o.logf("replayed runs: %d, sim speedup %.1f traced vs %.1f untraced", len(replays), tracedSpeedup, speedup)
	return o, writeOut(o, cfg, rec.snapshot())
}

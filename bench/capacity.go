package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"capmaestro/internal/core"
	"capmaestro/internal/dc"
	"capmaestro/internal/workload"
)

const (
	// studyWorkers is StudyOptions.Workers: one per core.
	studyWorkers = 2
	// These mirror dc.StudyOptions' defaults, which the replay needs to
	// plan the same runs FindCapacity made.
	defaultWorstCaseRuns = 60
	defaultMinPerRack    = 6
	defaultStepPerRack   = 3
	defaultMaxPerRack    = 45
	// allocProbeRuns is how many back-to-back DataCenter.Run calls the
	// traced run counts allocations over.
	allocProbeRuns = 32
)

// studies are the Fig. 9 capacity searches one study pass runs, with the
// paper's Global Priority capacities (162 racks × 36 and × 39 servers).
var studies = []struct {
	scenario dc.Scenario
	want     int
}{
	{dc.WorstCase, 5832},
	{dc.Typical, 6318},
}

func studyOptions(cfg config) dc.StudyOptions {
	o := dc.StudyOptions{Seed: cfg.seed, Workers: studyWorkers}
	if cfg.toy {
		o.WorstCaseRuns, o.TypicalRuns, o.MinPerRack = 4, 13, 30
	}
	return o
}

// studyPass runs dc.FindCapacity for both scenarios and checks each
// capacity against Fig. 9. It returns the servers-per-rack each search
// settled on.
func studyPass(o *outcome, opts dc.StudyOptions) ([]int, error) {
	cfg := dc.DefaultConfig()
	found := make([]int, len(studies))
	for i, s := range studies {
		res, err := dc.FindCapacity(cfg, s.scenario, core.GlobalPriority, opts)
		if err != nil {
			return nil, fmt.Errorf("%s study: %w", s.scenario, err)
		}
		o.attempted++
		if res.TotalServers != s.want {
			o.fail("%s capacity %d servers, Fig. 9 says %d", s.scenario, res.TotalServers, s.want)
		}
		found[i] = res.ServersPerRack
	}
	return found, nil
}

// studySetup builds the Table 4 data center for both scenarios and warms
// each with a few runs. The returned replicas stay referenced for the
// live-heap reading.
func studySetup(seed int64) ([]*dc.DataCenter, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []*dc.DataCenter
	for _, s := range studies {
		d, err := dc.Build(dc.DefaultConfig(), s.scenario)
		if err != nil {
			return nil, err
		}
		for i := 0; i < 8; i++ {
			if _, err := d.Run(rng, core.GlobalPriority, 1); err != nil {
				return nil, err
			}
		}
		out = append(out, d)
	}
	return out, nil
}

func runCapacity(cfg config) (*outcome, error) {
	o := newOutcome()
	opts := studyOptions(cfg)
	o.logf("capacity study: Table 4 config, Global Priority, worst case + typical, %d workers, typical runs %d",
		studyWorkers, opts.EffectiveTypicalRuns())

	var (
		state       []*dc.DataCenter
		cal         = newCalibrator()
		setups      = make([]time.Duration, setupRepeats)
		setupStarts = make([]time.Time, setupRepeats)
	)
	for i := range setups {
		runtime.GC()
		cal.sample()
		setupStarts[i] = time.Now()
		var err error
		if setups[i], err = timeIt(func() error {
			state, err = studySetup(cfg.seed)
			return err
		}); err != nil {
			return nil, err
		}
	}
	measured := cfg.seconds
	if cfg.trace {
		measured /= 2
	}
	var (
		passStarts []time.Time
		passes     []time.Duration
		found      []int
	)
	deadline := time.Now().Add(measured)
	for len(passes) == 0 || time.Now().Before(deadline) {
		cal.sample()
		start := time.Now()
		f, err := studyPass(o, opts)
		if err != nil {
			return nil, err
		}
		passStarts = append(passStarts, start)
		passes = append(passes, time.Since(start))
		found = f
	}
	cal.sample()
	studiesPerSec := windowRate(passes, 1)
	o.logf("study passes: %d, %.3f per second, servers per rack found %v", len(passes), studiesPerSec, found)

	if !cfg.trace {
		setupMetric(o, cal, setupStarts, setups)
		stepMetrics(o, cal, passStarts, passes, passes, 1)
		o.metrics["live_heap_mb"] = liveHeapMiB()
		runtime.KeepAlive(state)
		return o, nil
	}

	// Traced run: replay the searches FindCapacity made, timing every
	// dc.Build and DataCenter.Run.
	rec := newRecorder()
	rt0 := readRuntime()
	var replays []time.Duration
	runsPerPass := 0
	deadline = time.Now().Add(measured)
	for pass := int64(0); pass == 0 || time.Now().Before(deadline); pass++ {
		start := time.Now()
		n, err := replayStudy(rec, pass, opts, found)
		if err != nil {
			return nil, err
		}
		replays = append(replays, time.Since(start))
		runsPerPass = n
	}
	rt := rt0.to(readRuntime())
	tot := totals(rec.snapshot())
	o.metrics["dc.build_ms"] = tot[spanDCBuild].meanUs() / 1000
	o.metrics["dc.run_us"] = tot[spanDCRun].meanUs()
	o.metrics["dc.runs"] = float64(runsPerPass)
	o.metrics["gc.cpu_fraction"] = rt.gcCPUFraction
	allocs, err := allocsPerRun(state[0], cfg.seed)
	if err != nil {
		return nil, err
	}
	o.metrics["mem.allocs_per_run"] = allocs
	replaysPerSec := windowRate(replays, 1)
	o.metrics["trace.overhead_ratio"] = replaysPerSec / studiesPerSec
	o.logf("replayed passes: %d, %.3f per second; %d runs per pass", len(replays), replaysPerSec, runsPerPass)
	return o, writeOut(o, cfg, rec.snapshot())
}

// replayStudy repeats the Monte Carlo work one study pass did, as
// individually timed calls: for each scenario, every servers-per-rack
// count FindCapacity evaluated, with one dc.Build per worker and the
// planned runs spread over the workers as dc.MeanCapRatios does. The rng
// streams are the benchmark's own; only the work's shape is replayed. It
// returns the runs performed.
func replayStudy(rec *recorder, pass int64, opts dc.StudyOptions, found []int) (int, error) {
	root := rec.begin(spanStudy, pass, 0, noParent)
	defer rec.end(root)
	lo, step, hi := orDefault(opts.MinPerRack, defaultMinPerRack),
		orDefault(opts.StepPerRack, defaultStepPerRack), orDefault(opts.MaxPerRack, defaultMaxPerRack)
	runs := 0
	for i, s := range studies {
		utils := planUtils(s.scenario, opts)
		for per := lo; per <= min(found[i]+step, hi); per += step {
			cfg := dc.DefaultConfig()
			cfg.ServersPerRack = per
			if err := replayCount(rec, root, cfg, s.scenario, utils, opts.Seed+int64(per)); err != nil {
				return runs, err
			}
			runs += len(utils)
		}
	}
	return runs, nil
}

// planUtils lists the average utilization of every run MeanCapRatios
// plans for the scenario under default options: full load in the worst
// case, an even split over the Figure 8 buckets in the typical case.
func planUtils(scenario dc.Scenario, opts dc.StudyOptions) []float64 {
	if scenario == dc.WorstCase {
		utils := make([]float64, orDefault(opts.WorstCaseRuns, defaultWorstCaseRuns))
		for i := range utils {
			utils[i] = 1
		}
		return utils
	}
	buckets := workload.Figure8Distribution().Buckets()
	per := opts.EffectiveTypicalRuns() / len(buckets)
	utils := make([]float64, 0, per*len(buckets))
	for _, b := range buckets {
		for i := 0; i < per; i++ {
			utils = append(utils, b[0])
		}
	}
	return utils
}

// replayCount runs one servers-per-rack count: studyWorkers goroutines,
// each building its own replica and pulling run indices from a shared
// counter.
func replayCount(rec *recorder, parent int32, cfg dc.Config, scenario dc.Scenario, utils []float64, seed int64) error {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		errs = make([]error, studyWorkers)
	)
	for w := 0; w < studyWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start := rec.now()
			d, err := dc.Build(cfg, scenario)
			rec.add(spanDCBuild, int64(cfg.ServersPerRack), int32(w), parent, start, rec.now())
			if err != nil {
				errs[w] = err
				return
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(utils) {
					return
				}
				rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
				start := rec.now()
				_, err := d.Run(rng, core.GlobalPriority, utils[i])
				rec.add(spanDCRun, int64(i), int32(w), parent, start, rec.now())
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// allocsPerRun counts heap allocations over back-to-back runs on one
// built replica.
func allocsPerRun(d *dc.DataCenter, seed int64) (float64, error) {
	rng := rand.New(rand.NewSource(seed))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocProbeRuns; i++ {
		if _, err := d.Run(rng, core.GlobalPriority, 1); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / allocProbeRuns, nil
}

func orDefault(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

// Benchmarks regenerating every table and figure of the paper's evaluation
// (go test -bench=. -benchmem), plus ablations of the design choices
// called out in DESIGN.md. Each benchmark measures the cost of one full
// regeneration at reduced Monte Carlo fidelity; custom metrics report the
// headline quantity the experiment produces so `-bench` output doubles as
// a results summary.
package capmaestro_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"capmaestro"
	"capmaestro/internal/capping"
	"capmaestro/internal/core"
	"capmaestro/internal/dc"
	"capmaestro/internal/experiments"
	"capmaestro/internal/power"
	"capmaestro/internal/server"
	"capmaestro/internal/workload"
)

// benchOpts keeps bench iterations affordable; EXPERIMENTS.md records the
// full-fidelity numbers.
var benchOpts = experiments.Options{Fast: true, TypicalRuns: 26, WorstCaseRuns: 3}

func runExperiment(b *testing.B, id string) *experiments.Result {
	b.Helper()
	e, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var res *experiments.Result
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = e.Run(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// BenchmarkTable1 regenerates the local-vs-global conceptual comparison.
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFigure5 regenerates the per-supply cap enforcement trace: 200
// simulated seconds of per-second sensing and 8 s PI iterations.
func BenchmarkFigure5(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkTable2 regenerates the three-policy test-bed comparison (three
// full 2-minute simulations).
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFigure6b regenerates the circuit-breaker power traces under
// Global Priority.
func BenchmarkFigure6b(b *testing.B) { runExperiment(b, "fig6b") }

// BenchmarkTable3 regenerates the stranded-power study (two 3-minute
// dual-feed simulations, with and without SPO).
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFigure7c regenerates the Y-feed power traces.
func BenchmarkFigure7c(b *testing.B) { runExperiment(b, "fig7c") }

// BenchmarkFigure8 regenerates the utilization distribution and measures
// sampling throughput.
func BenchmarkFigure8(b *testing.B) {
	d := workload.Figure8Distribution()
	rng := rand.New(rand.NewSource(1))
	var sum float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += d.Sample(rng)
	}
	if sum < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkFigure9 regenerates the deployable-server capacity bars.
func BenchmarkFigure9(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFigure10 regenerates the worst-case cap-ratio curves.
func BenchmarkFigure10(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkSensitivityPriorityFraction regenerates the high-priority
// fraction sensitivity study.
func BenchmarkSensitivityPriorityFraction(b *testing.B) { runExperiment(b, "sens-priority") }

// BenchmarkSensitivityCapMin regenerates the Pcap_min sensitivity study.
func BenchmarkSensitivityCapMin(b *testing.B) { runExperiment(b, "sens-capmin") }

// BenchmarkSensitivityContractualBudget regenerates the contractual budget
// sensitivity study.
func BenchmarkSensitivityContractualBudget(b *testing.B) { runExperiment(b, "sens-budget") }

// BenchmarkAllocation measures one metrics-gathering + budgeting round at
// data-center scale: the per-control-period cost of the core algorithm.
// The reusable variant drives the study path (a full Monte Carlo run over
// the prebuilt per-phase Allocators — the hot loop of the capacity study);
// the oneshot variant re-runs the map-building core.Allocate convenience
// API on the same trees, showing what every control period would pay
// without the reusable engine.
func BenchmarkAllocation(b *testing.B) {
	for _, servers := range []int{486, 1944, 5832} {
		cfg := dc.DefaultConfig()
		cfg.ServersPerRack = servers / cfg.Racks()
		b.Run(fmt.Sprintf("servers=%d/reusable", servers), func(b *testing.B) {
			built, err := dc.Build(cfg, dc.WorstCase)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := built.Run(rng, core.GlobalPriority, 1.0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("servers=%d/oneshot", servers), func(b *testing.B) {
			built, err := dc.Build(cfg, dc.WorstCase)
			if err != nil {
				b.Fatal(err)
			}
			phases := built.Phases()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, root := range phases {
					if _, err := core.Allocate(root, 0, core.GlobalPriority); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationErrorMode compares the paper's min-error capping
// controller against an averaging ablation. The custom metric reports the
// worst overshoot of the tight supply's 180 W budget: near zero for
// min-error, tens of watts for averaging — the reason Figure 4 selects the
// minimum.
func BenchmarkAblationErrorMode(b *testing.B) {
	for _, mode := range []capping.ErrorMode{capping.ErrorModeMin, capping.ErrorModeAverage} {
		name := "min"
		if mode == capping.ErrorModeAverage {
			name = "average"
		}
		b.Run(name, func(b *testing.B) {
			var overshoot float64
			for i := 0; i < b.N; i++ {
				srv := server.MustNew(server.Config{
					ID:    "s1",
					Model: power.DefaultServerModel(),
					Supplies: []server.Supply{
						{ID: "psA", Split: 0.5},
						{ID: "psB", Split: 0.5},
					},
				})
				srv.SetUtilization(1)
				ctl := capping.MustNew(srv, capping.Config{Errors: mode})
				ctl.SetBudget("psA", 400)
				ctl.SetBudget("psB", 180)
				for p := 0; p < 10; p++ {
					for s := 0; s < 8; s++ {
						srv.Step(time.Second)
						ctl.Sense()
					}
					ctl.Iterate()
				}
				if pb, _ := srv.SupplyACPower("psB"); float64(pb)-180 > overshoot {
					overshoot = float64(pb) - 180
				}
			}
			b.ReportMetric(overshoot, "overshoot-W")
		})
	}
}

// BenchmarkAblationSummaryScaling shows why shifting controllers exchange
// priority-grouped summaries instead of per-server metrics: the root's
// budgeting work stays O(children × priorities) no matter how many servers
// sit below each child, so doubling rack size leaves root time unchanged.
func BenchmarkAblationSummaryScaling(b *testing.B) {
	for _, serversPerRack := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("serversPerRack=%d", serversPerRack), func(b *testing.B) {
			// Pre-summarize 40 racks of the given size, then benchmark the
			// room-level allocation over their proxies.
			var proxies []*core.Node
			for r := 0; r < 40; r++ {
				var leaves []*core.Node
				for s := 0; s < serversPerRack; s++ {
					id := fmt.Sprintf("r%d-s%d", r, s)
					leaves = append(leaves, core.NewLeaf(id, core.SupplyLeaf{
						SupplyID: id, ServerID: id, Priority: core.Priority(s % 3),
						Share: 1, CapMin: 270, CapMax: 490, Demand: 400,
					}))
				}
				rack := core.NewShifting(fmt.Sprintf("rack%d", r), 0, leaves...)
				engine, err := core.NewAllocator(rack)
				if err != nil {
					b.Fatal(err)
				}
				proxies = append(proxies, core.NewProxy(fmt.Sprintf("proxy%d", r), engine.Summarize(core.GlobalPriority)))
			}
			room := core.NewShifting("room", 0, proxies...)
			budget := power.Watts(float64(40*serversPerRack) * 300)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Allocate(room, budget, core.GlobalPriority); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSPO measures the cost and benefit of the stranded power
// optimization's second allocation pass on the Table 3 scenario; the
// custom metric reports the watts reclaimed.
func BenchmarkAblationSPO(b *testing.B) {
	build := func() []*capmaestro.Node {
		leaf := func(id, srv string, prio capmaestro.Priority, share float64, demand capmaestro.Watts) *capmaestro.Node {
			return capmaestro.NewLeaf(id, capmaestro.SupplyLeaf{
				SupplyID: id, ServerID: srv, Priority: prio, Share: share,
				CapMin: 270, CapMax: 490, Demand: demand,
			})
		}
		x := capmaestro.NewShifting("x", 1400,
			leaf("SA-x", "SA", 1, 1, 414),
			leaf("SC-x", "SC", 0, 0.533, 433),
			leaf("SD-x", "SD", 0, 0.461, 439))
		y := capmaestro.NewShifting("y", 1400,
			leaf("SB-y", "SB", 0, 1, 415),
			leaf("SC-y", "SC", 0, 0.467, 433),
			leaf("SD-y", "SD", 0, 0.539, 439))
		return []*capmaestro.Node{x, y}
	}
	budgets := []capmaestro.Watts{700, 700}
	b.Run("single-pass", func(b *testing.B) {
		trees := build()
		for i := 0; i < b.N; i++ {
			if _, err := capmaestro.AllocateAll(trees, budgets, capmaestro.GlobalPriority); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(0, "reclaimed-W")
	})
	b.Run("with-SPO", func(b *testing.B) {
		trees := build()
		var reclaimed float64
		for i := 0; i < b.N; i++ {
			_, report, err := capmaestro.AllocateWithSPO(trees, budgets, capmaestro.GlobalPriority)
			if err != nil {
				b.Fatal(err)
			}
			reclaimed = float64(report.TotalStranded)
		}
		b.ReportMetric(reclaimed, "reclaimed-W")
	})
}

// BenchmarkControlLoop measures one second of the full simulated control
// stack (sensing + actuation) for the four-server test bed, the unit of
// work the control plane performs continuously.
func BenchmarkControlLoop(b *testing.B) {
	srv := server.MustNew(server.Config{
		ID:    "s1",
		Model: power.DefaultServerModel(),
		Supplies: []server.Supply{
			{ID: "psA", Split: 0.5},
			{ID: "psB", Split: 0.5},
		},
	})
	srv.SetUtilization(1)
	ctl := capping.MustNew(srv, capping.Config{})
	ctl.SetBudget("psB", 220)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Step(time.Second)
		ctl.Sense()
		if i%8 == 0 {
			ctl.Iterate()
		}
	}
}

package controlplane

import (
	"context"
	"fmt"
	"testing"

	"capmaestro/internal/core"
	"capmaestro/internal/power"
)

// benchStubClient answers gathers with a fixed pre-built summary and
// swallows pushes, so the benchmark measures only the room-side fan-out
// and allocation machinery.
type benchStubClient struct{ s core.Summary }

func (c *benchStubClient) Gather(context.Context) (core.Summary, error) { return c.s, nil }
func (c *benchStubClient) ApplyBudget(context.Context, power.Watts) error {
	return nil
}

// TestHierarchyRunPeriodAllocs gates the control tier's steady-state
// allocations: one RunPeriod over 64 in-process racks, flat and through
// one and two aggregator tiers (fan-out 4). The ceilings are the counts
// measured before the room and aggregator were merged onto one tier, and
// they hold at GOMAXPROCS 1, 2 and 4 and under -race. Lower is fine; a
// rise fails.
func TestHierarchyRunPeriodAllocs(t *testing.T) {
	for _, tc := range []struct {
		levels int
		max    float64
	}{{2, 198}, {3, 310}, {4, 336}} {
		t.Run(fmt.Sprintf("levels=%d", tc.levels), func(t *testing.T) {
			racks := make(map[string]RackClient, 64)
			for r := 0; r < 64; r++ {
				w, err := NewRackWorker(fmt.Sprintf("hr%02d", r), hierRackTree(r), core.GlobalPriority, nil)
				if err != nil {
					t.Fatal(err)
				}
				racks[w.ID()] = LocalClient{Worker: w}
			}
			h, err := BuildHierarchy(racks, HierarchyConfig{
				Levels: tc.levels, FanOut: 4, Policy: core.GlobalPriority, Budget: 64000,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			period := func() {
				if _, stats, err := h.Room.RunPeriod(ctx); err != nil {
					t.Fatal(err)
				} else if stats.GatherErrors+stats.ApplyErrors+stats.BudgetsHeld != 0 {
					t.Fatalf("degraded period: %+v", stats)
				}
			}
			period() // warm up: first gathers, first pushes
			if n := testing.AllocsPerRun(20, period); n > tc.max {
				t.Errorf("RunPeriod allocates %v times per period, ceiling %v", n, tc.max)
			}
		})
	}
}

// BenchmarkRoomRunPeriod measures one full gather→allocate→push control
// period over 64 in-process stub racks. The per-period steady state
// should stay near allocation-free: the fan-out engine, hold maps, and
// allocator are all reused, leaving the engine snapshot as the dominant
// remaining per-period allocation.
func BenchmarkRoomRunPeriod(b *testing.B) {
	const racks = 64
	clients := make(map[string]RackClient, racks)
	proxies := make([]*core.Node, 0, racks)
	for i := 0; i < racks; i++ {
		id := fmt.Sprintf("br%03d", i)
		s := core.NewSummary()
		s.SetLevel(0, 270*8, 450*8, 450*8)
		s.Constraint = 950 * 4
		clients[id] = &benchStubClient{s: s}
		proxies = append(proxies, core.NewProxy(id, core.NewSummary()))
	}
	room, err := NewRoomWorker(core.NewShifting("room", 0, proxies...),
		racks*450*7, core.GlobalPriority, clients)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, stats, err := room.RunPeriod(ctx); err != nil {
		b.Fatal(err)
	} else if stats.GatherErrors+stats.ApplyErrors+stats.BudgetsHeld != 0 {
		b.Fatalf("warmup period degraded: %+v", stats)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := room.RunPeriod(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

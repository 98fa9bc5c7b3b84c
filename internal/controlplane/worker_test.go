package controlplane

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"capmaestro/internal/core"
	"capmaestro/internal/power"
	"capmaestro/internal/telemetry"
)

// rackOf builds a rack of n supplies with the given per-supply demand.
func rackOf(id string, n int, demand power.Watts) *core.Node {
	leaves := make([]*core.Node, n)
	for s := range leaves {
		sid := fmt.Sprintf("%s-s%d", id, s)
		leaves[s] = leaf(sid, sid, core.Priority(s%2), demand+power.Watts(s))
	}
	return core.NewShifting(id, power.Watts(450*n), leaves...)
}

// TestRackWorkerSteadyStateAllocs gates the rack tier's hot path on its
// persistent engine: a steady-state ApplyBudget (untraced, no sink)
// allocates nothing, and a Gather allocates only the returned summary's
// level slice.
func TestRackWorkerSteadyStateAllocs(t *testing.T) {
	w, err := NewRackWorker("r", rackOf("r", 40, 400), core.GlobalPriority, nil,
		WithTelemetry(telemetry.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := w.ApplyBudget(ctx, 15000); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := w.ApplyBudget(ctx, 15000); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ApplyBudget allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := w.Gather(ctx); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Gather allocates %v times per call, want at most 1", n)
	}
}

// TestRackWorkerLastAllocationAcrossSetTree pins LastAllocation to the
// last applied budget's result: a same-shape SetTree (rebound in place)
// and a shape-changing one (new engine) both leave it unchanged until the
// next ApplyBudget.
func TestRackWorkerLastAllocationAcrossSetTree(t *testing.T) {
	var sunk []string
	w, err := NewRackWorker("r", rackOf("r", 4, 400), core.GlobalPriority,
		func(id string, _ power.Watts) { sunk = append(sunk, id) })
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := w.ApplyBudget(ctx, 1500); err != nil {
		t.Fatal(err)
	}
	want := w.LastAllocation()
	if len(want.SupplyBudgets) != 4 || !reflect.DeepEqual(sunk, []string{"r-s0", "r-s1", "r-s2", "r-s3"}) {
		t.Fatalf("allocation %v, sink saw %v", want.SupplyBudgets, sunk)
	}
	// Each call builds a fresh snapshot, so a caller's edits stay local.
	want.SupplyBudgets["r-s0"] = -1
	want = w.LastAllocation()
	if want.SupplyBudgets["r-s0"] < 0 {
		t.Fatal("LastAllocation returned a shared snapshot")
	}

	for _, step := range []struct {
		name string
		tree *core.Node
	}{
		{"same shape", rackOf("r", 4, 480)},
		{"changed shape", rackOf("r", 5, 480)},
		{"changed again, no apply between", rackOf("r", 3, 480)},
	} {
		if err := w.SetTree(step.tree); err != nil {
			t.Fatal(err)
		}
		if got := w.LastAllocation(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: LastAllocation\n got %+v\nwant %+v", step.name, got, want)
		}
	}

	if err := w.ApplyBudget(ctx, 1200); err != nil {
		t.Fatal(err)
	}
	got := w.LastAllocation()
	ref, err := core.Allocate(rackOf("r", 3, 480), 1200, core.GlobalPriority)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("after apply:\n got %+v\nwant %+v", got, ref)
	}
}

// TestRackWorkerConcurrentSetTree drives SetTree (same-shape rebinds and
// shape changes) against gathers, applies and LastAllocation from several
// goroutines; run it under -race.
func TestRackWorkerConcurrentSetTree(t *testing.T) {
	w, err := NewRackWorker("r", rackOf("r", 4, 400), core.GlobalPriority, func(string, power.Watts) {})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := w.SetTree(rackOf("r", 3+i%3, power.Watts(300+i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := w.Gather(ctx); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := w.ApplyBudget(ctx, 1200); err != nil {
				t.Error(err)
				return
			}
			if a := w.LastAllocation(); a == nil || len(a.SupplyBudgets) < 3 {
				t.Errorf("LastAllocation = %+v after an apply", a)
				return
			}
		}
	}()
	wg.Wait()
}

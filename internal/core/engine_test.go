package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"capmaestro/internal/power"
)

// rackTree builds one rack: a breaker rated 450 W per server over
// n supplies, every third one at priority 1.
func rackTree(id string, n int) *Node {
	leaves := make([]*Node, n)
	for s := range leaves {
		sid := fmt.Sprintf("%s-s%d", id, s)
		prio := Priority(0)
		if s%3 == 0 {
			prio = 1
		}
		leaves[s] = leaf(sid, sid, prio, 1, power.Watts(300+5*s%190))
	}
	return NewShifting(id, power.Watts(450*n), leaves...)
}

// threeLevelTree builds a room over four aggregators of four 10-server
// racks each.
func threeLevelTree() *Node {
	aggs := make([]*Node, 4)
	for a := range aggs {
		racks := make([]*Node, 4)
		for r := range racks {
			racks[r] = rackTree(fmt.Sprintf("a%d-r%d", a, r), 10)
		}
		aggs[a] = NewShifting(fmt.Sprintf("a%d", a), 15000, racks...)
	}
	return NewShifting("room", 50000, aggs...)
}

// TestAllocatorRunZeroAllocs gates the engine's steady-state claim: with
// no explain sink attached, a Run after the first allocates nothing.
func TestAllocatorRunZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tree   *Node
		budget power.Watts
	}{
		{"rack", rackTree("r", 40), 14000},
		{"3-level", threeLevelTree(), 45000},
	} {
		for _, policy := range []Policy{GlobalPriority, LocalPriority, NoPriority} {
			t.Run(tc.name+"/"+policy.String(), func(t *testing.T) {
				a, err := NewAllocator(tc.tree)
				if err != nil {
					t.Fatal(err)
				}
				a.Run(tc.budget, policy) // sizes the reusable scratch
				if n := testing.AllocsPerRun(100, func() { a.Run(tc.budget, policy) }); n != 0 {
					t.Errorf("Run allocates %v times per call, want 0", n)
				}
			})
		}
	}
}

// TestAllocatorFootprint pins the memory a run engine retains, averaged
// over 1000 engines sharing one tree. Every rack worker keeps an engine
// alive, so a field added to Allocator shows up here before it spends the
// control plane's heap budget.
func TestAllocatorFootprint(t *testing.T) {
	for _, tc := range []struct {
		leaves  int
		ceiling float64 // bytes per engine
	}{
		{40, 5200},
		{4, 850},
	} {
		t.Run(fmt.Sprintf("%d-leaf", tc.leaves), func(t *testing.T) {
			tree := rackTree("r", tc.leaves)
			engines := make([]*Allocator, 1000)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := range engines {
				a, err := NewAllocator(tree)
				if err != nil {
					t.Fatal(err)
				}
				a.Run(power.Watts(400*tc.leaves), GlobalPriority)
				engines[i] = a
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(engines))
			runtime.KeepAlive(engines)
			t.Logf("%d-leaf rack: %.0f B retained per engine", tc.leaves, per)
			if per > tc.ceiling {
				t.Errorf("engine retains %.0f B, ceiling %.0f B", per, tc.ceiling)
			}
		})
	}
}

// rebindTree is the base shape of the Rebind tests: a shifting CDU over
// two supplies, a proxy, and a direct supply.
func rebindTree(demand power.Watts) *Node {
	s := NewSummary()
	s.SetLevel(0, 100, 200, 200)
	s.Constraint = 300
	return NewShifting("room", 2000,
		NewShifting("cdu", 900,
			leaf("a", "A", 1, 1, demand),
			leaf("b", "B", 0, 1, demand)),
		NewProxy("p", s),
		leaf("c", "C", 0, 1, demand))
}

func TestAllocatorRebind(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(root *Node)
		ok     bool
	}{
		{"same shape, new demands", func(root *Node) {
			for _, l := range root.Leaves() {
				l.Leaf.Demand = 480
			}
		}, true},
		{"renamed node", func(root *Node) { root.Children[0].ID = "cdu2" }, false},
		{"extra child", func(root *Node) {
			cdu := root.Children[0]
			cdu.Children = append(cdu.Children, leaf("d", "D", 0, 1, 400))
		}, false},
		{"changed supply ID", func(root *Node) { root.Children[2].Leaf.SupplyID = "c2" }, false},
		{"leaf became proxy", func(root *Node) {
			root.Children[2] = NewProxy("c", *root.Children[1].Proxy)
		}, false},
		{"proxy became leaf", func(root *Node) {
			root.Children[1] = leaf("p", "P", 0, 1, 400)
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bound := rebindTree(400)
			a, err := NewAllocator(bound)
			if err != nil {
				t.Fatal(err)
			}
			// An infeasible budget, so the kept flag is observable.
			if !a.Run(500, GlobalPriority) {
				t.Fatal("500 W should be infeasible")
			}
			want := a.Snapshot()
			next := rebindTree(400)
			tc.mutate(next)
			if err := next.Validate(); err != nil {
				t.Fatal(err)
			}
			if got := a.Rebind(next); got != tc.ok {
				t.Fatalf("Rebind = %v, want %v", got, tc.ok)
			}
			if got := a.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Errorf("Rebind changed the last result:\n got %+v\nwant %+v", got, want)
			}
			if !a.Infeasible() {
				t.Error("Rebind cleared Infeasible")
			}
			wantRoot := bound
			if tc.ok {
				wantRoot = next
			}
			if a.Node(0) != wantRoot || a.Node(3) != wantRoot.Children[2] {
				t.Error("engine is bound to the wrong tree")
			}
			// The next Run reads the bound tree's leaves.
			a.Run(1500, GlobalPriority)
			fresh, err := NewAllocator(wantRoot)
			if err != nil {
				t.Fatal(err)
			}
			fresh.Run(1500, GlobalPriority)
			if got, want := a.Snapshot(), fresh.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Errorf("run after Rebind:\n got %+v\nwant %+v", got, want)
			}
		})
	}
	a, err := NewAllocator(rebindTree(400))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rebind(nil) {
		t.Error("Rebind(nil) = true")
	}
}

func TestAllocatorNodeIndexLazy(t *testing.T) {
	a, err := NewAllocator(rebindTree(400))
	if err != nil {
		t.Fatal(err)
	}
	if a.byID != nil {
		t.Fatal("ID index built before the first NodeIndex call")
	}
	for i := 0; i < a.Len(); i++ {
		if got, ok := a.NodeIndex(a.Node(i).ID); !ok || got != i {
			t.Errorf("NodeIndex(%q) = %d, %v; want %d", a.Node(i).ID, got, ok, i)
		}
	}
	if _, ok := a.NodeIndex("missing"); ok {
		t.Error("NodeIndex found a missing ID")
	}
}

package core

import (
	"math"
	"math/rand"
	"testing"

	"capmaestro/internal/power"
)

// fig2Tree reproduces the hierarchy of Figure 2 / Section 3.2: a top CB
// (1400 W) over Left and Right CBs (750 W each), with server SA (high
// priority) and SB under the left CB and SC, SD under the right CB.
func fig2Tree(demA, demB, demC, demD power.Watts) *Node {
	return NewShifting("top", 1400,
		NewShifting("left", 750,
			leaf("SA-ps", "SA", 1, 1, demA),
			leaf("SB-ps", "SB", 0, 1, demB),
		),
		NewShifting("right", 750,
			leaf("SC-ps", "SC", 0, 1, demC),
			leaf("SD-ps", "SD", 0, 1, demD),
		),
	)
}

func wantBudget(t *testing.T, a *Allocation, supply string, want, tol power.Watts) {
	t.Helper()
	got := a.Budget(supply)
	if math.Abs(float64(got-want)) > float64(tol) {
		t.Errorf("budget[%s] = %v, want %v ± %v", supply, got, want, tol)
	}
}

// TestTable1GlobalPriority reproduces Table 1 exactly: under a 1240 W
// budget with equal 430 W demands, the global policy budgets SA its full
// demand and pins the three low-priority servers at Pcap_min.
func TestTable1GlobalPriority(t *testing.T) {
	tree := fig2Tree(430, 430, 430, 430)
	a := MustAllocate(tree, 1240, GlobalPriority)
	wantBudget(t, a, "SA-ps", 430, 0.001)
	wantBudget(t, a, "SB-ps", 270, 0.001)
	wantBudget(t, a, "SC-ps", 270, 0.001)
	wantBudget(t, a, "SD-ps", 270, 0.001)
	if err := a.CheckInvariants(tree); err != nil {
		t.Error(err)
	}
}

// TestTable1LocalPriority reproduces Table 1's local-priority column
// exactly: the top level splits 620/620 with no priority knowledge, so SA
// can only reach 350 W while SC and SD sit at 310 W each.
func TestTable1LocalPriority(t *testing.T) {
	tree := fig2Tree(430, 430, 430, 430)
	a := MustAllocate(tree, 1240, LocalPriority)
	wantBudget(t, a, "SA-ps", 350, 0.001)
	wantBudget(t, a, "SB-ps", 270, 0.001)
	wantBudget(t, a, "SC-ps", 310, 0.001)
	wantBudget(t, a, "SD-ps", 310, 0.001)
	if got := a.NodeBudgets["left"]; !power.ApproxEqual(got, 620, 0.001) {
		t.Errorf("left CB budget = %v, want 620", got)
	}
	if err := a.CheckInvariants(tree); err != nil {
		t.Error(err)
	}
}

// TestTable2Shapes checks the measured-demand variant (Table 2): the exact
// watt values in the paper come from a real system, so we assert the
// policy-defining shape with small tolerances.
func TestTable2Shapes(t *testing.T) {
	tree := fig2Tree(420, 413, 417, 423)

	np := MustAllocate(tree, 1240, NoPriority)
	// No Priority: everyone gets min + proportional share; paper reports
	// 314/306/311/316.
	wantBudget(t, np, "SA-ps", 314, 6)
	wantBudget(t, np, "SB-ps", 306, 6)
	wantBudget(t, np, "SC-ps", 311, 6)
	wantBudget(t, np, "SD-ps", 316, 6)

	lp := MustAllocate(tree, 1240, LocalPriority)
	// Local Priority: SA can only borrow from SB; paper reports
	// 344/274/314/317.
	wantBudget(t, lp, "SA-ps", 344, 8)
	wantBudget(t, lp, "SB-ps", 274, 8)
	wantBudget(t, lp, "SC-ps", 314, 8)
	wantBudget(t, lp, "SD-ps", 317, 8)

	gp := MustAllocate(tree, 1240, GlobalPriority)
	// Global Priority: SA gets its full demand; paper reports
	// 419/276/275/275.
	wantBudget(t, gp, "SA-ps", 420, 2)
	wantBudget(t, gp, "SB-ps", 274, 4)
	wantBudget(t, gp, "SC-ps", 274, 4)
	wantBudget(t, gp, "SD-ps", 274, 4)

	for _, a := range []*Allocation{np, lp, gp} {
		if err := a.CheckInvariants(tree); err != nil {
			t.Error(err)
		}
	}
}

func TestGlobalBeatsLocalBeatsNoneForHighPriority(t *testing.T) {
	tree := fig2Tree(430, 430, 430, 430)
	np := MustAllocate(tree, 1240, NoPriority).Budget("SA-ps")
	lp := MustAllocate(tree, 1240, LocalPriority).Budget("SA-ps")
	gp := MustAllocate(tree, 1240, GlobalPriority).Budget("SA-ps")
	if !(gp > lp && lp > np) {
		t.Errorf("SA budgets: global %v > local %v > none %v expected", gp, lp, np)
	}
}

func TestNoPriorityProportionality(t *testing.T) {
	// Flat tree, two servers: surplus beyond minimums splits proportionally
	// to demand − capmin.
	tree := NewShifting("root", 0,
		leaf("a", "A", 1, 1, 370), // demand-min = 100
		leaf("b", "B", 0, 1, 470), // demand-min = 200
	)
	a := MustAllocate(tree, 690, NoPriority) // 540 min + 150 surplus
	wantBudget(t, a, "a", 270+50, 0.001)
	wantBudget(t, a, "b", 270+100, 0.001)
}

func TestBudgetCoversAllDemand(t *testing.T) {
	// Total demand (1360 W) fits under the top CB (1400 W): every server
	// must receive at least its demand; step 4 may add surplus up to
	// Pconstraint.
	tree := fig2Tree(340, 340, 340, 340)
	a := MustAllocate(tree, 1400, GlobalPriority)
	for _, s := range []string{"SA-ps", "SB-ps", "SC-ps", "SD-ps"} {
		if got := a.Budget(s); got < 340-epsilon {
			t.Errorf("budget[%s] = %v, want at least demand 340", s, got)
		}
	}
	if err := a.CheckInvariants(tree); err != nil {
		t.Error(err)
	}
}

func TestBudgetClampedToTopCB(t *testing.T) {
	// A root budget above the top CB's limit is clamped: with demand 1600 W
	// against a 1400 W CB, the shortfall is shared by the low-priority
	// servers while SA stays whole.
	tree := fig2Tree(400, 400, 400, 400)
	a := MustAllocate(tree, 1600, GlobalPriority)
	wantBudget(t, a, "SA-ps", 400, 0.001)
	var total power.Watts
	for _, s := range []string{"SA-ps", "SB-ps", "SC-ps", "SD-ps"} {
		total += a.Budget(s)
	}
	if total > 1400+epsilon {
		t.Errorf("total %v exceeds top CB 1400", total)
	}
	if err := a.CheckInvariants(tree); err != nil {
		t.Error(err)
	}
}

func TestStep4SurplusUpToConstraint(t *testing.T) {
	// Budget beyond total demand: surplus flows to leaves, but never past
	// each leaf's Pconstraint (r × CapMax), and never past CB limits.
	tree := fig2Tree(300, 300, 300, 300)
	a := MustAllocate(tree, 4000, GlobalPriority)
	var total power.Watts
	for _, s := range []string{"SA-ps", "SB-ps", "SC-ps", "SD-ps"} {
		b := a.Budget(s)
		if b < 300-0.001 {
			t.Errorf("budget[%s] = %v, want at least demand", s, b)
		}
		if b > 490+0.001 {
			t.Errorf("budget[%s] = %v exceeds CapMax", s, b)
		}
		total += b
	}
	if lb := a.NodeBudgets["left"]; lb > 750+epsilon {
		t.Errorf("left CB budget %v exceeds 750 limit", lb)
	}
	if err := a.CheckInvariants(tree); err != nil {
		t.Error(err)
	}
}

func TestCBLimitTruncatesRequests(t *testing.T) {
	// A 600 W CB over two 430 W-demand servers forces capping even though
	// the root budget is plentiful.
	tree := NewShifting("root", 0,
		NewShifting("cb", 600,
			leaf("a", "A", 0, 1, 430),
			leaf("b", "B", 0, 1, 430),
		),
	)
	a := MustAllocate(tree, 5000, GlobalPriority)
	sum := a.Budget("a") + a.Budget("b")
	if sum > 600+epsilon {
		t.Errorf("children sum %v exceeds CB limit 600", sum)
	}
	if math.Abs(float64(sum-600)) > 0.001 {
		t.Errorf("children sum %v should use the full 600 CB allowance", sum)
	}
}

func TestHighPriorityProtectedAcrossCBs(t *testing.T) {
	// The defining global-priority property: the high-priority server is
	// uncapped while remote low-priority servers under a different CB give
	// up power, as long as CB limits allow.
	tree := fig2Tree(430, 430, 430, 430)
	a := MustAllocate(tree, 1300, GlobalPriority)
	wantBudget(t, a, "SA-ps", 430, 0.001)
	low := []power.Watts{a.Budget("SB-ps"), a.Budget("SC-ps"), a.Budget("SD-ps")}
	for _, b := range low {
		if b < 270-epsilon {
			t.Errorf("low-priority budget %v below Pcap_min", b)
		}
	}
}

func TestHighPriorityBoundedByOwnCB(t *testing.T) {
	// Even a high-priority server cannot exceed its own breaker's limit:
	// two high-priority servers under a 700 W CB share it.
	tree := NewShifting("root", 0,
		NewShifting("cb1", 700,
			leaf("a", "A", 1, 1, 430),
			leaf("b", "B", 1, 1, 430),
		),
		NewShifting("cb2", 750,
			leaf("c", "C", 0, 1, 430),
		),
	)
	a := MustAllocate(tree, 2000, GlobalPriority)
	if sum := a.Budget("a") + a.Budget("b"); sum > 700+epsilon {
		t.Errorf("high-priority pair %v exceeds CB 700", sum)
	}
	// The low-priority server keeps at least its demand: it is not under
	// the constrained CB, so no power can usefully move away from it
	// (step 4 may add surplus up to its 490 W constraint).
	if got := a.Budget("c"); got < 430-epsilon || got > 490+epsilon {
		t.Errorf("budget[c] = %v, want in [430, 490]", got)
	}
}

func TestThreePriorityLevels(t *testing.T) {
	tree := NewShifting("root", 0,
		leaf("h", "H", 2, 1, 490),
		leaf("m", "M", 1, 1, 490),
		leaf("l", "L", 0, 1, 490),
	)
	// 1250 W: H fully satisfied (490), M gets what remains above L's min:
	// 1250 − 490 − 270 = 490 → M = 490? No: M's request is bounded by
	// constraint − request(H) − capmin(L). Here constraint = ∞→sum caps =
	// 1470. allowable = 1470 − 490 − 270 = 710, so M requests min(710,490)
	// = 490. Budget: mins 810, rem 440; H wants 220 → rem 220; M wants 220
	// → rem 0; L stays at 270.
	a := MustAllocate(tree, 1250, GlobalPriority)
	wantBudget(t, a, "h", 490, 0.001)
	wantBudget(t, a, "m", 490, 0.001)
	wantBudget(t, a, "l", 270, 0.001)
}

func TestMidPriorityPartiallyCapped(t *testing.T) {
	tree := NewShifting("root", 0,
		leaf("h", "H", 2, 1, 490),
		leaf("m1", "M1", 1, 1, 490),
		leaf("m2", "M2", 1, 1, 400),
		leaf("l", "L", 0, 1, 490),
	)
	// mins 1080; budget 1500 → rem 420; H wants 220 → rem 200;
	// M wants 220+130=350 > 200 → proportional by demand−min (220:130):
	// m1 += 125.7, m2 += 74.3.
	a := MustAllocate(tree, 1500, GlobalPriority)
	wantBudget(t, a, "h", 490, 0.001)
	wantBudget(t, a, "m1", 395.71, 0.01)
	wantBudget(t, a, "m2", 344.29, 0.01)
	wantBudget(t, a, "l", 270, 0.001)
}

func TestInfeasibleBudgetScalesMinimums(t *testing.T) {
	tree := fig2Tree(430, 430, 430, 430)
	a := MustAllocate(tree, 540, GlobalPriority) // < 4 × 270
	if !a.Infeasible {
		t.Fatal("expected Infeasible flag")
	}
	var total power.Watts
	for _, s := range []string{"SA-ps", "SB-ps", "SC-ps", "SD-ps"} {
		total += a.Budget(s)
	}
	if math.Abs(float64(total-540)) > 0.01 {
		t.Errorf("scaled minimums total %v, want 540", total)
	}
}

func TestDemandBelowCapMinStillBudgetsMin(t *testing.T) {
	// A lightly loaded server (demand below Pcap_min) must still be
	// budgeted at least Pcap_min, or a later load increase would make the
	// cap unenforceable (Section 4.3.1).
	tree := NewShifting("root", 0,
		leaf("a", "A", 0, 1, 180),
		leaf("b", "B", 0, 1, 490),
	)
	a := MustAllocate(tree, 760, GlobalPriority)
	if got := a.Budget("a"); got < 270-epsilon {
		t.Errorf("light server budget %v below Pcap_min", got)
	}
}

func TestDemandAboveCapMaxClamped(t *testing.T) {
	tree := NewShifting("root", 0, leaf("a", "A", 0, 1, 800))
	a := MustAllocate(tree, 1000, GlobalPriority)
	if got := a.Budget("a"); got > 490+epsilon {
		t.Errorf("budget %v exceeds CapMax 490", got)
	}
}

func TestSupplyShareScalesMetrics(t *testing.T) {
	// A supply carrying 65% of the server load scales all level-1 metrics
	// by r = 0.65 (Section 4.3.1).
	m := LeafSummary(&SupplyLeaf{
		SupplyID: "a", ServerID: "A", Share: 0.65,
		CapMin: 270, CapMax: 490, Demand: 400,
	})
	if got := m.CapMin(0); !power.ApproxEqual(got, 0.65*270, 1e-9) {
		t.Errorf("capMin = %v, want %v", got, 0.65*270)
	}
	if got := m.Request(0); !power.ApproxEqual(got, 0.65*400, 1e-9) {
		t.Errorf("request = %v, want %v", got, 0.65*400)
	}
	if got := m.Constraint; !power.ApproxEqual(got, 0.65*490, 1e-9) {
		t.Errorf("constraint = %v, want %v", got, 0.65*490)
	}
	// Demand below CapMin is lifted to CapMin (budget must stay
	// enforceable).
	m = LeafSummary(&SupplyLeaf{
		SupplyID: "a", ServerID: "A", Share: 1,
		CapMin: 270, CapMax: 490, Demand: 180,
	})
	if got := m.Demand(0); !power.ApproxEqual(got, 270, 1e-9) {
		t.Errorf("lifted demand = %v, want 270", got)
	}
	// The SPO BudgetCap pins every metric at the usable value.
	m = LeafSummary(&SupplyLeaf{
		SupplyID: "a", ServerID: "A", Share: 1,
		CapMin: 270, CapMax: 490, Demand: 480, BudgetCap: 300,
	})
	if m.CapMin(0) != 300 || m.Demand(0) != 300 || m.Request(0) != 300 || m.Constraint != 300 {
		t.Errorf("pinned metrics = %+v, want all 300", m)
	}
}

func TestZeroBudgetUsesConstraint(t *testing.T) {
	tree := fig2Tree(430, 430, 430, 430)
	a := MustAllocate(tree, 0, GlobalPriority)
	// Root constraint = min(1400, left 750→min(750,980), right …) = 1400.
	// With 1400 W: SA 430, then low levels absorb the rest.
	wantBudget(t, a, "SA-ps", 430, 0.001)
	if err := a.CheckInvariants(tree); err != nil {
		t.Error(err)
	}
}

func TestAllocateErrors(t *testing.T) {
	if _, err := Allocate(nil, 100, GlobalPriority); err == nil {
		t.Error("nil tree should fail")
	}
	bad := NewShifting("r", 100)
	if _, err := Allocate(bad, 100, GlobalPriority); err == nil {
		t.Error("invalid tree should fail")
	}
}

func TestMustAllocatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustAllocate(nil, 100, GlobalPriority)
}

func TestPolicyString(t *testing.T) {
	if NoPriority.String() != "No Priority" ||
		LocalPriority.String() != "Local Priority" ||
		GlobalPriority.String() != "Global Priority" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Error("unknown policy formatting wrong")
	}
}

func TestWaterfill(t *testing.T) {
	shares := waterfill(100, []float64{1, 1}, []power.Watts{100, 100})
	if !power.ApproxEqual(shares[0], 50, 0.001) || !power.ApproxEqual(shares[1], 50, 0.001) {
		t.Errorf("even split wrong: %v", shares)
	}
	// Cap saturates the first recipient; overflow goes to the second.
	shares = waterfill(100, []float64{3, 1}, []power.Watts{30, 100})
	if !power.ApproxEqual(shares[0], 30, 0.001) || !power.ApproxEqual(shares[1], 70, 0.001) {
		t.Errorf("cap redistribution wrong: %v", shares)
	}
	// Zero weights with open caps: equal split fallback.
	shares = waterfill(60, []float64{0, 0, 0}, []power.Watts{100, 100, 5})
	var total power.Watts
	for _, s := range shares {
		total += s
	}
	if !power.ApproxEqual(total, 60, 0.001) {
		t.Errorf("zero-weight fallback leaks power: %v", shares)
	}
	// Everyone saturated: leftover is returned unassigned.
	shares = waterfill(100, []float64{1}, []power.Watts{20})
	if !power.ApproxEqual(shares[0], 20, 0.001) {
		t.Errorf("saturation wrong: %v", shares)
	}
	// Non-positive amount.
	shares = waterfill(0, []float64{1}, []power.Watts{10})
	if shares[0] != 0 {
		t.Error("zero amount should assign nothing")
	}
}

// randomTree builds a random 3-level control tree for property testing.
func randomTree(rng *rand.Rand, unlimitedCBs bool) *Node {
	nGroups := 2 + rng.Intn(3)
	var groups []*Node
	serverN := 0
	for g := 0; g < nGroups; g++ {
		nLeaves := 1 + rng.Intn(4)
		var leaves []*Node
		for l := 0; l < nLeaves; l++ {
			serverN++
			id := string(rune('a'+g)) + string(rune('0'+l))
			prio := Priority(rng.Intn(3))
			demand := power.Watts(200 + rng.Float64()*300)
			leaves = append(leaves, leaf(id, "S"+id, prio, 1, demand))
		}
		limit := power.Watts(0)
		if !unlimitedCBs {
			// Keep every CB able to carry its leaves' Pcap_min (270 W each)
			// so configurations stay feasible, while still exerting
			// pressure below peak demand.
			limit = power.Watts(float64(nLeaves) * (280 + rng.Float64()*300))
		}
		groups = append(groups, NewShifting("g"+string(rune('a'+g)), limit, leaves...))
	}
	return NewShifting("root", 0, groups...)
}

func TestPropertyInvariantsRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		tree := randomTree(rng, false)
		budget := power.Watts(200*len(tree.Leaves())) + power.Watts(rng.Float64()*2000)
		for _, pol := range []Policy{NoPriority, LocalPriority, GlobalPriority} {
			a, err := Allocate(tree, budget, pol)
			if err != nil {
				t.Fatalf("iter %d policy %v: %v", i, pol, err)
			}
			if err := a.CheckInvariants(tree); err != nil {
				t.Fatalf("iter %d policy %v: %v", i, pol, err)
			}
		}
	}
}

// TestPropertyGlobalPriorityOrdering verifies the theorem of Section 4.3:
// with unconstrained intermediate CBs, a higher-priority server is capped
// only after every lower-priority server in the tree is at its minimum.
func TestPropertyGlobalPriorityOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		tree := randomTree(rng, true)
		leaves := tree.Leaves()
		budget := power.Watts(float64(len(leaves)) * (270 + rng.Float64()*200))
		a, err := Allocate(tree, budget, GlobalPriority)
		if err != nil {
			t.Fatal(err)
		}
		if a.Infeasible {
			continue
		}
		for _, hi := range leaves {
			hb := a.Budget(hi.Leaf.SupplyID)
			hReq := power.Min(power.Max(hi.Leaf.Demand, hi.Leaf.CapMin), hi.Leaf.CapMax)
			if hb >= hReq-0.01 {
				continue // not capped
			}
			for _, lo := range leaves {
				if lo.Leaf.Priority >= hi.Leaf.Priority {
					continue
				}
				lb := a.Budget(lo.Leaf.SupplyID)
				if lb > lo.Leaf.CapMin+0.01 {
					t.Fatalf("iter %d: %s (prio %d) capped at %v while %s (prio %d) holds %v above min",
						i, hi.ID, hi.Leaf.Priority, hb, lo.ID, lo.Leaf.Priority, lb)
				}
			}
		}
	}
}

// TestPropertyBindingConstraintJustifiesCapping: with finite CBs, whenever
// a high-priority leaf is capped while some lower-priority leaf holds power
// above its minimum, there must be a binding limit on the path from their
// lowest common ancestor to the high leaf — otherwise power could move.
func TestPropertyBindingConstraintJustifiesCapping(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 200; i++ {
		tree := randomTree(rng, false)
		leaves := tree.Leaves()
		budget := power.Watts(float64(len(leaves)) * (270 + rng.Float64()*200))
		a, err := Allocate(tree, budget, GlobalPriority)
		if err != nil {
			t.Fatal(err)
		}
		if a.Infeasible {
			continue
		}
		parentOf := map[*Node]*Node{}
		tree.Walk(func(n *Node) {
			for _, c := range n.Children {
				parentOf[c] = n
			}
		})
		pathToRoot := func(n *Node) []*Node {
			var p []*Node
			for cur := n; cur != nil; cur = parentOf[cur] {
				p = append(p, cur)
			}
			return p
		}
		for _, hi := range leaves {
			hb := a.Budget(hi.Leaf.SupplyID)
			hReq := power.Min(power.Max(hi.Leaf.Demand, hi.Leaf.CapMin), hi.Leaf.CapMax)
			if hb >= hReq-0.01 {
				continue
			}
			for _, lo := range leaves {
				if lo.Leaf.Priority >= hi.Leaf.Priority {
					continue
				}
				if a.Budget(lo.Leaf.SupplyID) <= lo.Leaf.CapMin+0.01 {
					continue
				}
				// A transfer from lo to hi is blocked only by a binding
				// limit strictly below their lowest common ancestor on hi's
				// side; shifting controllers at or above the LCA merely
				// redistribute a fixed sum.
				loPath := map[*Node]bool{}
				for _, n := range pathToRoot(lo) {
					loPath[n] = true
				}
				binding := false
				for _, n := range pathToRoot(hi) {
					if loPath[n] {
						break // reached the LCA
					}
					limit := n.limitOrInf()
					if !math.IsInf(float64(limit), 1) && a.NodeBudgets[n.ID] >= limit-0.01 {
						binding = true
						break
					}
				}
				if !binding {
					t.Fatalf("iter %d: %s capped but no binding constraint blocks transfer from %s",
						i, hi.ID, lo.ID)
				}
			}
		}
	}
}

// TestLocalPriorityAsymmetricDepth documents the Dynamo-style boundary in
// an asymmetric tree: a node is "local" (priority-aware) exactly when it
// directly parents capping-controller endpoints, wherever that occurs. The
// root here parents a leaf directly, so it is itself a leaf-parent and
// stays priority-aware even under LocalPriority.
func TestLocalPriorityAsymmetricDepth(t *testing.T) {
	tree := NewShifting("root", 0,
		leaf("direct-hi", "H", 1, 1, 490),
		NewShifting("group", 750,
			leaf("g-lo1", "L1", 0, 1, 490),
			leaf("g-lo2", "L2", 0, 1, 490),
		),
	)
	a := MustAllocate(tree, 1100, LocalPriority)
	// Root sees the direct leaf's priority: the high-priority server is
	// protected against the group, which collapses to a single level.
	wantBudget(t, a, "direct-hi", 490, 0.001)
	if got := a.Budget("g-lo1") + a.Budget("g-lo2"); got > 610+epsilon {
		t.Errorf("group total %v exceeds remainder", got)
	}
	if err := a.CheckInvariants(tree); err != nil {
		t.Error(err)
	}
}

// TestProxyNodeAllocation: proxy nodes receive budgets but no supply
// budgets (their remote workers distribute locally), and their summaries
// participate in priority-aware budgeting.
func TestProxyNodeAllocation(t *testing.T) {
	rack := NewShifting("rack", 750,
		leaf("r-hi", "RH", 1, 1, 490),
		leaf("r-lo", "RL", 0, 1, 490),
	)
	engine, err := NewAllocator(rack)
	if err != nil {
		t.Fatal(err)
	}
	tree := NewShifting("room", 0,
		NewProxy("rack-proxy", engine.Summarize(GlobalPriority)),
		leaf("local-lo", "LL", 0, 1, 490),
	)
	a := MustAllocate(tree, 1100, GlobalPriority)
	// The rack wants 490 (high) + 270 (low min) = 760 W, but its own
	// 750 W breaker caps its constraint; the proxy receives exactly the
	// constraint.
	if got := a.NodeBudgets["rack-proxy"]; !power.ApproxEqual(got, 750, 0.001) {
		t.Errorf("proxy budget = %v, want 750 (rack CB constraint)", got)
	}
	if got := a.Budget("local-lo"); got < 270-epsilon {
		t.Errorf("local low budget = %v", got)
	}
	if _, ok := a.SupplyBudgets["r-hi"]; ok {
		t.Error("proxy subtree supplies must not appear in SupplyBudgets")
	}
	if err := a.CheckInvariants(tree); err != nil {
		t.Error(err)
	}
}

package core

import (
	"fmt"

	"capmaestro/internal/power"
)

// flatNode is one tree node's entry in an Allocator's flattened layout.
// childStart/childEnd delimit the node's children in the BFS-ordered node
// array (children of one node are contiguous in BFS order). Everything
// else a pass needs (the normalized limit, whether the node is a
// lowest-level shifting controller) is read from node when needed, which
// keeps a rack-sized engine small enough for every rack worker to hold one.
type flatNode struct {
	node                 *Node
	childStart, childEnd int32
}

// Allocator is a reusable budgeting engine bound to one control tree. It
// flattens the tree into index-addressed arrays once (validating it once)
// and reuses all working storage — per-node summaries, budgets, and
// waterfill scratch — across passes, so a steady-state Run allocates
// nothing. This is the engine under the Monte Carlo capacity studies,
// where the same trees are re-budgeted tens of thousands of times with
// only leaf demands and priorities changing between runs, and under every
// control-plane worker, which holds one for its subtree.
//
// The Allocator reads the tree's leaves afresh on every Run, so callers
// may mutate leaf Demand, Priority, Share, and BudgetCap between runs.
// A freshly built tree of the same shape can replace the bound one with
// Rebind, which keeps the last Run's results. Any structural change —
// adding or removing nodes, renaming a node or supply, turning a leaf into
// a proxy — requires a new Allocator. The ID index behind NodeIndex is
// built on its first call, so engines that are only ever run pay nothing
// for it. An Allocator is not safe for concurrent use; parallel studies
// run one replica per worker.
type Allocator struct {
	nodes      []flatNode    // BFS (top-down) order; index 0 is the root
	summaries  []Summary     // by node index; reused across runs
	budgets    []power.Watts // by node index; the last Run's result
	byID       map[string]int
	scratch    distScratch
	infeasible bool
	sink       ExplainSink // optional per-node audit stream; nil = free
}

// NewAllocator validates the tree and flattens it for repeated allocation.
func NewAllocator(root *Node) (*Allocator, error) {
	if root == nil {
		return nil, fmt.Errorf("core: nil tree")
	}
	if err := root.Validate(); err != nil {
		return nil, err
	}
	count := 0
	root.Walk(func(*Node) { count++ })
	// Breadth-first layout: a node's children occupy a contiguous index
	// range, so child summaries and budgets can be passed as slices. The
	// exactly sized node array is its own BFS queue.
	nodes := make([]flatNode, 1, count)
	nodes[0].node = root
	for i := 0; i < len(nodes); i++ {
		start := int32(len(nodes))
		for _, c := range nodes[i].node.Children {
			nodes = append(nodes, flatNode{node: c})
		}
		nodes[i].childStart, nodes[i].childEnd = start, int32(len(nodes))
	}
	return &Allocator{
		nodes:     nodes,
		summaries: make([]Summary, count),
		budgets:   make([]power.Watts, count),
	}, nil
}

// Rebind re-points the allocator at root, a tree of the same shape as the
// bound one: the same node IDs in BFS order, the same child counts, the
// same leaf/proxy/shifting kinds, and the same leaf supply IDs. The last
// Run's budgets and feasibility are kept, so Snapshot and NodeBudget keep
// describing it. Rebind reports false, leaving the allocator untouched,
// when the shapes differ. It checks shape only: root must already have
// passed Validate.
func (a *Allocator) Rebind(root *Node) bool {
	if root == nil || !a.sameShape(root, 0) {
		return false
	}
	a.bind(root, 0)
	return true
}

// sameShape reports whether the subtree at n matches the bound subtree at
// node index i.
func (a *Allocator) sameShape(n *Node, i int32) bool {
	fn := &a.nodes[i]
	old := fn.node
	if n.ID != old.ID || len(n.Children) != int(fn.childEnd-fn.childStart) ||
		(n.Leaf == nil) != (old.Leaf == nil) || (n.Proxy == nil) != (old.Proxy == nil) ||
		(n.Leaf != nil && n.Leaf.SupplyID != old.Leaf.SupplyID) {
		return false
	}
	for k, c := range n.Children {
		if !a.sameShape(c, fn.childStart+int32(k)) {
			return false
		}
	}
	return true
}

// bind stores the subtree at n into the node slots from index i down.
func (a *Allocator) bind(n *Node, i int32) {
	fn := &a.nodes[i]
	fn.node = n
	for k, c := range n.Children {
		a.bind(c, fn.childStart+int32(k))
	}
}

// Len returns the number of tree nodes under the allocator.
func (a *Allocator) Len() int { return len(a.nodes) }

// NodeIndex returns the index of the node with the given ID. The first
// call builds the ID index.
func (a *Allocator) NodeIndex(id string) (int, bool) {
	if a.byID == nil {
		a.byID = make(map[string]int, len(a.nodes))
		for i := range a.nodes {
			a.byID[a.nodes[i].node.ID] = i
		}
	}
	i, ok := a.byID[id]
	return i, ok
}

// Node returns the tree node at index i (BFS order; 0 is the root).
func (a *Allocator) Node(i int) *Node { return a.nodes[i].node }

// NodeBudget returns the budget the last Run assigned to node index i.
func (a *Allocator) NodeBudget(i int) power.Watts { return a.budgets[i] }

// Infeasible reports whether the last Run found some budget unable to
// cover the aggregate Pcap_min beneath it.
func (a *Allocator) Infeasible() bool { return a.infeasible }

// gather runs the metrics gathering phase bottom-up (reverse BFS order),
// leaving each node's reported summary — possibly priority-collapsed,
// depending on the policy — in a.summaries.
func (a *Allocator) gather(policy Policy) {
	for i := len(a.nodes) - 1; i >= 0; i-- {
		fn := &a.nodes[i]
		n := fn.node
		s := &a.summaries[i]
		switch {
		case n.Proxy != nil:
			// Externally summarized subtree (a remote worker's report).
			s.copyFrom(n.Proxy)
			if policy == NoPriority {
				s.collapseFrom(s)
			}
		case n.IsLeaf():
			leafMetricsInto(s, n.Leaf)
			if policy == NoPriority {
				s.collapseFrom(s)
			}
		default:
			combineInto(s, a.summaries[fn.childStart:fn.childEnd], n.limitOrInf())
			// A Dynamo-style local policy reports priority-collapsed
			// metrics above the lowest shifting level; a No Priority
			// policy sees a single level everywhere (leaves already
			// collapsed).
			if policy == LocalPriority && n.isLeafParent() {
				s.collapseFrom(s)
			}
		}
	}
}

// Run performs one gather + budgeting pass under the given policy and root
// budget (non-positive uses the root constraint), reusing all scratch. It
// reports whether the allocation was infeasible; per-node results are read
// with NodeBudget/Node or Snapshot. Run never fails: the tree was
// validated when the Allocator was built.
func (a *Allocator) Run(budget power.Watts, policy Policy) (infeasible bool) {
	a.gather(policy)
	a.infeasible = false

	rootSummary := &a.summaries[0]
	if budget <= 0 {
		budget = rootSummary.Constraint
	}
	budget = power.Min(budget, rootSummary.Constraint)
	if budget+epsilon < rootSummary.TotalCapMin() {
		a.infeasible = true
	}

	// Budgeting phase (Section 4.3.2), top-down in BFS order: each node's
	// budget is clamped to its constraint and split among its children
	// directly into their budget slots.
	a.budgets[0] = budget
	for i := range a.nodes {
		fn := &a.nodes[i]
		b := power.Min(a.budgets[i], a.summaries[i].Constraint)
		if b < 0 {
			b = 0
		}
		a.budgets[i] = b
		if fn.childStart == fn.childEnd {
			continue // leaf or proxy: the budget is the result
		}
		children := a.summaries[fn.childStart:fn.childEnd]
		if distributeInto(b, children, a.budgets[fn.childStart:fn.childEnd], &a.scratch) {
			a.infeasible = true
		}
	}
	if a.sink != nil {
		a.explainAll()
	}
	return a.infeasible
}

// Summarize runs the gathering phase only and returns a copy of the
// summary the root would report upstream under the given policy.
func (a *Allocator) Summarize(policy Policy) Summary {
	a.gather(policy)
	return a.summaries[0].Clone()
}

// Snapshot materializes the last Run as a map-based Allocation, the
// portable result shape the one-shot Allocate API returns.
func (a *Allocator) Snapshot() *Allocation {
	res := &Allocation{
		SupplyBudgets: make(map[string]power.Watts),
		NodeBudgets:   make(map[string]power.Watts, len(a.nodes)),
		Infeasible:    a.infeasible,
	}
	for i := range a.nodes {
		n := a.nodes[i].node
		res.NodeBudgets[n.ID] = a.budgets[i]
		if n.IsLeaf() {
			res.SupplyBudgets[n.Leaf.SupplyID] = a.budgets[i]
		}
	}
	return res
}

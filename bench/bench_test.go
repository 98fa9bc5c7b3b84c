package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"capmaestro/internal/controlplane"
	"capmaestro/internal/core"
	"capmaestro/internal/power"
)

// TestSmokeAllWorkloads runs every workload at toy size, untraced and
// traced, and checks each result line is complete and correct.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				cfg := config{seed: 7, seconds: 200 * time.Millisecond, trace: trace, toy: true}
				o, err := workloads[name](cfg)
				if err != nil {
					t.Fatal(err)
				}
				r, err := result(o, trace)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%v", r.Correct, r.Attempted, r.Failed, o.lines)
				}
				if !trace {
					for _, d := range endToEnd {
						if v := r.Metrics[d.name].Value; !(v > 0) {
							t.Errorf("%s = %v, want > 0", d.name, v)
						}
					}
					return
				}
				if v := r.Metrics["trace.overhead_ratio"].Value; !(v > 0) {
					t.Errorf("trace.overhead_ratio = %v, want > 0", v)
				}
			})
		}
	}
}

func TestTailTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[n-1-i] = float64(i + 1) // descending input: tail must sort
		}
		return s
	}
	cases := []struct {
		n         int
		pct, want float64
	}{
		{1000, 99, 990},
		{999, 95, 950}, // p99 has 9 beyond
		{200, 95, 190},
		{199, 90, 180}, // p95 would leave 9 beyond
		{100, 90, 90},
		{40, 75, 30},
		{20, 50, 10},
		{19, 100, 19}, // no percentile qualifies: the maximum
		{1, 100, 1},
	}
	for _, c := range cases {
		pct, v := tail(seq(c.n))
		if pct != c.pct || v != c.want {
			t.Errorf("n=%d: tail = p%g %v, want p%g %v", c.n, pct, v, c.pct, c.want)
		}
		if pct < 100 && beyond(pct, c.n) < minBeyond {
			t.Errorf("n=%d: p%g has %d samples beyond", c.n, pct, beyond(pct, c.n))
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestWindowRateIgnoresABurst(t *testing.T) {
	steps := make([]time.Duration, 100)
	for i := range steps {
		steps[i] = 10 * time.Millisecond
	}
	for i := 0; i < 10; i++ {
		steps[i] = time.Second // one slow window
	}
	if got := windowRate(steps, 2); got != 200 {
		t.Errorf("windowRate = %v, want 200 (2 units per 10 ms step)", got)
	}
	if got := windowRate(steps[97:], 1); got != 100 {
		t.Errorf("windowRate over 3 steps = %v, want 100", got)
	}
}

func TestCalibratorScalesBySamplesAroundEachStep(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	c := &calibrator{samples: []calSample{
		{at(0), 6 * time.Millisecond},
		{at(100), 6 * time.Millisecond},
		{at(200), 12 * time.Millisecond},
		{at(300), 12 * time.Millisecond},
		{at(400), 12 * time.Millisecond},
	}}
	got := c.scales(
		[]time.Time{at(110), at(210), at(310), at(500)},
		[]time.Duration{80 * time.Millisecond, 80 * time.Millisecond, 80 * time.Millisecond, 80 * time.Millisecond})
	// Windows: {0,100,200}, {100,200,300}, {200,300,400}, and the last three.
	want := []float64{1, 0.5, 0.5, 0.5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scales = %v, want %v", got, want)
	}
	if d := scaled([]time.Duration{10 * time.Millisecond}, []float64{0.5}); d[0] != 5*time.Millisecond {
		t.Fatalf("scaled = %v, want 5ms", d[0])
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{name: spanPeriod, parent: noParent, start: 0, end: 100},
		{name: spanRackGather, parent: 0, start: 10, end: 30},
		{name: spanRackGather, parent: 0, start: 20, end: 40}, // overlaps the first
		{name: spanRackApply, parent: 0, start: 90, end: 120}, // runs past the parent
	}
	self := selfTimes(spans)
	if self[0] != 60 { // 100 − (30 covered by [10,40]) − (10 by [90,100])
		t.Errorf("period self time = %v, want 60ns", self[0])
	}
	if self[1] != 20 || self[3] != 30 {
		t.Errorf("leaf self times = %v, want their durations", self[1:])
	}
}

func TestRecorderSpansChunks(t *testing.T) {
	rec := newRecorder()
	root := rec.begin(spanPeriod, 1, 0, noParent)
	for i := 0; i < spanChunk+5; i++ {
		rec.add(spanRackGather, 1, 0, root, int64(i), int64(i+1))
	}
	rec.end(root)
	spans := rec.snapshot()
	if len(spans) != spanChunk+6 || spans[0].name != spanPeriod || spans[len(spans)-1].start != spanChunk+4 {
		t.Fatalf("snapshot has %d spans, first %v", len(spans), spans[0].name)
	}
	rec.reset()
	if n := len(rec.snapshot()); n != 0 {
		t.Fatalf("%d spans after reset", n)
	}
}

// TestInputsDeterministic checks that one seed always generates the same
// fleet, churn draws and scenario, and another seed different ones.
func TestInputsDeterministic(t *testing.T) {
	for _, shape := range []cpShape{deepSteady, wideChurn} {
		a, b, c := genInputs(shape, 5), genInputs(shape, 5), genInputs(shape, 6)
		if !reflect.DeepEqual(a.demand, b.demand) || !reflect.DeepEqual(a.prio, b.prio) || a.budget != b.budget {
			t.Fatal("same seed, different fleet")
		}
		if reflect.DeepEqual(a.demand, c.demand) {
			t.Fatal("different seeds, same fleet")
		}
		for i := 0; i < 3; i++ {
			a.redraw()
			b.redraw()
			if !reflect.DeepEqual(a.demand, b.demand) {
				t.Fatalf("churn draw %d differs", i)
			}
		}
	}
	enc := func(seed int64) string {
		data, err := json.Marshal(genScenario(feedFailureShape, seed))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if enc(5) != enc(5) {
		t.Fatal("same seed, different scenario")
	}
	if enc(5) == enc(6) {
		t.Fatal("different seeds, same scenario")
	}
	if err := genScenario(feedFailureShape, 5).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTracedRackForwardsOptionalInterfaces checks the traced wrapper
// offers every optional interface *RackWorker implements, so the server
// takes the same path for both.
func TestTracedRackForwardsOptionalInterfaces(t *testing.T) {
	in := genInputs(deepSteady.toy(), 1)
	w, err := controlplane.NewRackWorker(in.rackIDs[0], in.trees()[0], core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	var tr any = &tracedRack{w: w, t: &rackTracer{rec: newRecorder()}}
	var worker any = w
	for _, iface := range []reflect.Type{
		reflect.TypeOf((*controlplane.RackClient)(nil)).Elem(),
		reflect.TypeOf((*controlplane.DigestGatherer)(nil)).Elem(),
	} {
		if reflect.TypeOf(worker).Implements(iface) && !reflect.TypeOf(tr).Implements(iface) {
			t.Errorf("tracedRack does not forward %v", iface)
		}
	}
	got, _, err := tr.(controlplane.DigestGatherer).GatherDigest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := w.GatherDigest(context.Background())
	if !reflect.DeepEqual(got, want) {
		t.Fatal("wrapped GatherDigest differs from the worker's")
	}
}

// TestTracedMatchesUntraced drives an untraced and a traced fleet from
// one seed and requires identical budgets on every supply.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, shape := range []cpShape{deepSteady.toy(), wideChurn.toy()} {
		budgets := func(rec *recorder) map[string]power.Watts {
			in := genInputs(shape, 11)
			f, err := standUp(in, rec)
			if err != nil {
				t.Fatal(err)
			}
			defer f.close()
			o := newOutcome()
			if _, err := f.measure(context.Background(), o, 0, rec, nil); err != nil {
				t.Fatal(err)
			}
			if err := f.verify(o); err != nil || o.failed != 0 {
				t.Fatalf("verify: %v %v", err, o.lines)
			}
			out := make(map[string]power.Watts)
			for _, w := range f.workers {
				for id, b := range w.LastAllocation().SupplyBudgets {
					out[id] = b
				}
			}
			return out
		}
		plain, traced := budgets(nil), budgets(newRecorder())
		if len(plain) != shape.racks*shape.perRack || !reflect.DeepEqual(plain, traced) {
			t.Fatalf("traced budgets differ from untraced (%d vs %d supplies)", len(traced), len(plain))
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metrics
// in step with what the benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if want := workloadNames(); !sameSet(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func sameSet(a, b []string) bool {
	seen := make(map[string]int)
	for _, s := range a {
		seen[s]++
	}
	for _, s := range b {
		seen[s]--
	}
	for _, n := range seen {
		if n != 0 {
			return false
		}
	}
	return true
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// spanName identifies the layer boundary a span was recorded at. Spans
// are recorded only by the benchmark, around its own calls into each
// layer; the program itself is not instrumented.
type spanName uint8

const (
	spanPeriod           spanName = iota // RoomWorker.RunPeriod
	spanRefresh                          // RackWorker.SetTree over every rack
	spanRackGather                       // one rack Gather handler call
	spanRackApply                        // one rack ApplyBudget handler call
	spanStudy                            // one replayed capacity study pass
	spanDCBuild                          // dc.Build
	spanDCRun                            // DataCenter.Run
	spanScenario                         // one replayed scenario run
	spanSimSecond                        // Simulator.Run(1s), no control period
	spanSimControlSecond                 // Simulator.Run(1s) holding a period
	spanProbe                            // Probe.Sample
	spanEvaluate                         // scenario.Evaluate
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"period", "refresh", "rack.gather", "rack.apply",
	"study", "dc.build", "dc.run",
	"scenario", "sim.second", "sim.control_second", "scenario.probe", "scenario.evaluate",
}

func (n spanName) String() string { return spanNames[n] }

// noParent marks a root span.
const noParent = -1

// span is one timed call. id is the shared identifier of the unit of
// work the span belongs to: the control period, the Monte Carlo run, or
// the simulated second. parent indexes the enclosing span in the same
// recorder. The struct holds no pointers, so a large span buffer costs
// the garbage collector nothing to scan.
type span struct {
	name       spanName
	lane       int32 // endpoint, worker or rack index
	id         int64
	parent     int32
	start, end int64 // nanoseconds since the recorder's epoch
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// spanChunk is how many spans one recorder chunk holds.
const spanChunk = 1 << 16

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use: rack handler spans arrive from server goroutines.
//
// Spans live in anonymous memory mappings outside the Go heap. A span
// buffer on the heap would grow the heap the garbage collector paces
// against, so the traced run would collect less often than the untraced
// run it is compared with.
type recorder struct {
	epoch  time.Time
	mu     sync.Mutex
	chunks [][]span // each is a mapping of spanChunk spans
	n      int32
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// push appends a span under r.mu and returns its index.
func (r *recorder) push(s span) int32 {
	if len(r.chunks) == 0 || len(r.chunks[len(r.chunks)-1]) == spanChunk {
		r.chunks = append(r.chunks, newChunk())
	}
	c := &r.chunks[len(r.chunks)-1]
	*c = append(*c, s)
	r.n++
	return r.n - 1
}

// newChunk maps room for spanChunk spans, falling back to the heap when
// the mapping fails. Mappings live until the process exits.
func newChunk() []span {
	size := spanChunk * int(unsafe.Sizeof(span{}))
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]span, 0, spanChunk)
	}
	return unsafe.Slice((*span)(unsafe.Pointer(&b[0])), spanChunk)[:0]
}

// begin opens a span that will parent others and returns its index.
func (r *recorder) begin(name spanName, id int64, lane, parent int32) int32 {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.push(span{name: name, lane: lane, id: id, parent: parent, start: t, end: t})
}

// end closes a span opened by begin.
func (r *recorder) end(i int32) {
	t := r.now()
	r.mu.Lock()
	r.chunks[i/spanChunk][i%spanChunk].end = t
	r.mu.Unlock()
}

// add records a finished leaf span.
func (r *recorder) add(name spanName, id int64, lane, parent int32, start, end int64) {
	r.mu.Lock()
	r.push(span{name: name, lane: lane, id: id, parent: parent, start: start, end: end})
	r.mu.Unlock()
}

// reset drops every span recorded so far.
func (r *recorder) reset() {
	r.mu.Lock()
	for i := range r.chunks {
		r.chunks[i] = r.chunks[i][:0]
	}
	r.chunks = r.chunks[:min(len(r.chunks), 1)]
	r.n = 0
	r.mu.Unlock()
}

// snapshot copies the recorded spans onto the heap; call it once
// recording is over.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, r.n)
	for _, c := range r.chunks {
		out = append(out, c...)
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its child spans.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent != noParent {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - time.Duration(covered(s.start, s.end, children[int32(i)]))
	}
	return self
}

// covered returns how much of [lo, hi] the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	flush := func() {
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			flush()
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	flush()
	return total
}

// spanTotals sums count, duration and self time per span name.
type spanTotal struct {
	count     int
	dur, self time.Duration
}

func totals(spans []span) [numSpanNames]spanTotal {
	var t [numSpanNames]spanTotal
	self := selfTimes(spans)
	for i, s := range spans {
		t[s.name].count++
		t[s.name].dur += s.dur()
		t[s.name].self += self[i]
	}
	return t
}

// meanUs is the mean duration of the named spans in microseconds.
func (t spanTotal) meanUs() float64 {
	return ratio(float64(t.dur)/float64(time.Microsecond), float64(t.count))
}

// writeSpans writes every span as one CSV line, with its self time.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index,name,id,lane,parent,start_ns,end_ns,self_ns")
	for i, s := range selfTimes(spans) {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d,%d,%d\n", i, spans[i].name, spans[i].id, spans[i].lane, spans[i].parent, spans[i].start, spans[i].end, int64(s))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

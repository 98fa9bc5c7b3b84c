package controlplane

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"capmaestro/internal/core"
	"capmaestro/internal/flightrec"
	"capmaestro/internal/power"
	"capmaestro/internal/telemetry"
)

// TestTCPClientCloseUnblocksStalledRequest is the regression test for the
// Close-blocking bug: a server that accepts and reads but never responds
// used to pin the client mutex for the whole attempt timeout, so Close
// blocked behind it. With connection state split from request
// serialization, Close must return immediately and the in-flight request
// must fail fast with ErrClientClosed.
func TestTCPClientCloseUnblocksStalledRequest(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	requestSeen := make(chan struct{}, 4)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				// Read the request so the client's write completes, then
				// stall forever: the client blocks in decode.
				buf := make([]byte, 1)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
					select {
					case requestSeen <- struct{}{}:
					default:
					}
				}
			}()
		}
	}()

	// A long attempt timeout: if Close waits out the attempt, the test
	// time limit catches it.
	client := DialRack(ln.Addr().String(), 30*time.Second, WithRPCRetry(0, time.Millisecond))
	gatherErr := make(chan error, 1)
	go func() {
		_, err := client.Gather(context.Background())
		gatherErr <- err
	}()
	select {
	case <-requestSeen:
	case <-time.After(5 * time.Second):
		t.Fatal("server never saw the request")
	}

	closeStart := time.Now()
	if err := client.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if elapsed := time.Since(closeStart); elapsed > 2*time.Second {
		t.Fatalf("Close blocked %v behind the stalled request", elapsed)
	}
	select {
	case err := <-gatherErr:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("stalled gather returned %v, want ErrClientClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight gather did not fail fast after Close")
	}
}

// scriptServer answers every request on every connection with the same
// scripted response, counting connections — a minimal stand-in for a
// buggy or malicious rack server.
func scriptServer(t *testing.T, response wireResponse) (addr string, conns *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	conns = &atomic.Int32{}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conn.Close()
				cdc, err := acceptPreamble(bufio.NewReader(conn), conn)
				if err != nil {
					return
				}
				var req wireRequest
				for {
					if err := cdc.ReadRequest(&req); err != nil {
						return
					}
					resp := response
					if err := cdc.WriteResponse(&resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), conns
}

// TestGatherOKWithoutSummaryIsTransportFault is the regression test for
// the malformed-response bug: a gather response claiming OK with no
// summary must be treated as a transport fault — counted in
// protocol_errors, connection reset (each retry arrives on a fresh
// connection), and surfaced as an error instead of a healthy stream.
func TestGatherOKWithoutSummaryIsTransportFault(t *testing.T) {
	addr, conns := scriptServer(t, wireResponse{OK: true})
	reg := telemetry.NewRegistry()
	client := DialRack(addr, time.Second, WithRPCRetry(2, time.Millisecond), WithTelemetry(reg))
	defer client.Close()

	_, err := client.Gather(context.Background())
	if err == nil {
		t.Fatal("malformed gather response reported success")
	}
	var pe *protocolError
	if !errors.As(err, &pe) {
		t.Fatalf("gather returned %v, want a protocol error", err)
	}
	// 1 attempt + 2 retries, each over a fresh connection because every
	// protocol fault resets the stream.
	if got := conns.Load(); got != 3 {
		t.Fatalf("server saw %d connections, want 3 (reset per protocol fault)", got)
	}
	errsVec := reg.CounterVec("capmaestro_rpc_protocol_errors_total", "", "role")
	if got := errsVec.With("client").Value(); got != 3 {
		t.Fatalf("protocol_errors = %v, want 3", got)
	}
	// The client is still usable: a later budget push round-trips fine on
	// a server that answers OK.
	if pingErr := client.Ping(context.Background()); pingErr != nil {
		t.Fatalf("client unusable after protocol faults: %v", pingErr)
	}
}

// TestUnchangedWithoutCacheIsTransportFault covers the other malformed
// combination: an Unchanged gather on a connection that never received a
// full summary has nothing to resolve against and must fault rather than
// fabricate a summary.
func TestUnchangedWithoutCacheIsTransportFault(t *testing.T) {
	addr, _ := scriptServer(t, wireResponse{OK: true, Unchanged: true})
	client := DialRack(addr, time.Second, WithRPCRetry(1, time.Millisecond))
	defer client.Close()
	_, err := client.Gather(context.Background())
	var pe *protocolError
	if !errors.As(err, &pe) {
		t.Fatalf("gather returned %v, want a protocol error", err)
	}
	if !strings.Contains(err.Error(), "cached") {
		t.Fatalf("unexpected protocol error text: %v", err)
	}
}

// TestBinaryDeltaGatherEndToEnd drives a real server/client pair: the
// first gather ships a full summary, repeat gathers of an unchanged rack
// squash to delta frames on both counters, and a severed connection
// forces a full-summary resync before delta resumes.
func TestBinaryDeltaGatherEndToEnd(t *testing.T) {
	worker, err := NewRackWorker("rack0",
		core.NewShifting("rack0", 0, leaf("s0", "S0", 1, 400), leaf("s1", "S1", 0, 400)),
		core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	srv, err := ServeRack(worker, "127.0.0.1:0", WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := DialRack(srv.Addr(), time.Second, WithTelemetry(reg), WithRPCRetry(2, time.Millisecond))
	defer client.Close()

	deltaVec := reg.CounterVec("capmaestro_rpc_delta_hits_total", "", "role")
	clientHits := func() float64 { return deltaVec.With("client").Value() }
	serverHits := func() float64 { return deltaVec.With("server").Value() }

	first, err := client.Gather(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if clientHits() != 0 || serverHits() != 0 {
		t.Fatalf("first gather used the delta path (client %v, server %v)", clientHits(), serverHits())
	}

	// The rack is static, so repeat gathers squash to unchanged frames
	// that resolve to the identical summary.
	for i := 0; i < 3; i++ {
		got, err := client.Gather(context.Background())
		if err != nil {
			t.Fatalf("gather %d: %v", i, err)
		}
		if !summariesEquivalent(&first, &got) {
			t.Fatalf("delta gather %d drifted:\nfirst %+v\n got  %+v", i, first, got)
		}
	}
	if clientHits() != 3 || serverHits() != 3 {
		t.Fatalf("delta hits client %v server %v, want 3/3", clientHits(), serverHits())
	}

	// Sever the live connection: the next gather reconnects, and the
	// fresh connection must resync with a full frame (no new delta hit).
	client.mu.Lock()
	conn := client.conn
	client.mu.Unlock()
	conn.Close()
	got, err := client.Gather(context.Background())
	if err != nil {
		t.Fatalf("gather after severed conn: %v", err)
	}
	if !summariesEquivalent(&first, &got) {
		t.Fatal("post-reconnect gather drifted")
	}
	if clientHits() != 3 {
		t.Fatalf("reconnect did not force a full-summary resync (client hits %v)", clientHits())
	}
	// Delta resumes on the new connection.
	if _, err := client.Gather(context.Background()); err != nil {
		t.Fatal(err)
	}
	if clientHits() != 4 {
		t.Fatalf("delta did not resume after resync (client hits %v)", clientHits())
	}
}

// TestServerCodecRestriction pins the fail-closed handshake: a server
// closes every connection that does not open with the binary preamble —
// an old JSON client, a preamble of another version, an unknown first
// byte — and counts each as a server protocol error, while a binary
// client on the same server keeps getting correct gathers throughout.
func TestServerCodecRestriction(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, workers := batchFixture(t, nil, []Option{WithTelemetry(reg)})
	protocolErrors := reg.CounterVec("capmaestro_rpc_protocol_errors_total", "", "role").With("server")
	ctx := context.Background()
	gatherCorrect := func(t *testing.T, when string) {
		t.Helper()
		want, err := workers["rb"].Gather(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Rack("rb").Gather(ctx)
		if err != nil {
			t.Fatalf("binary gather %s: %v", when, err)
		}
		if !summariesEquivalent(&want, &got) {
			t.Fatalf("binary gather %s drifted:\nwant %+v\n got %+v", when, want, got)
		}
	}

	gatherCorrect(t, "before any rejected connection")
	openings := []struct {
		name  string
		bytes []byte
	}{
		{"json-client", []byte(`{"op":"gather","rack":"rb"}` + "\n")},
		{"wrong-version", []byte{binMagic, binVersion + 1, 2, 0, 0, 0, binVersion, opBytePing}},
		{"unknown-byte", []byte("GET /metrics HTTP/1.1\r\n\r\n")},
	}
	for i, o := range openings {
		t.Run(o.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", c.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(o.bytes); err != nil {
				t.Fatalf("write: %v", err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := io.Copy(io.Discard, conn); err != nil || n != 0 {
				t.Fatalf("server answered %d bytes (err %v), want a silent close", n, err)
			}
			if got := protocolErrors.Value(); got != float64(i+1) {
				t.Fatalf("server protocol errors = %v, want %d", got, i+1)
			}
			gatherCorrect(t, "after "+o.name)
		})
	}
}

// TestDefaultTransportMatchesLocal pins the transport a bare DialRack
// speaks: against ServeRacks it produces the same budgets, watt for
// watt, as in-process LocalClients, and once the first full gather has
// landed, every steady-state gather is a delta hit.
func TestDefaultTransportMatchesLocal(t *testing.T) {
	const racks, periods = 3, 4
	reg := telemetry.NewRegistry()
	served := make(map[string]RackClient, racks)
	local := make(map[string]RackClient, racks)
	var tcpWorkers, localWorkers []*RackWorker
	var tcpProxies, localProxies []*core.Node
	for r := 0; r < racks; r++ {
		id := fmt.Sprintf("dr%d", r)
		mk := func() *RackWorker {
			w, err := NewRackWorker(id, rackOf(id, 2+r, power.Watts(300+40*r)), core.GlobalPriority, nil)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
		tw, lw := mk(), mk()
		served[id], local[id] = tw, LocalClient{Worker: lw}
		tcpWorkers, localWorkers = append(tcpWorkers, tw), append(localWorkers, lw)
		tcpProxies = append(tcpProxies, core.NewProxy(id, core.NewSummary()))
		localProxies = append(localProxies, core.NewProxy(id, core.NewSummary()))
	}
	srv, err := ServeRacks(served, "127.0.0.1:0", WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := DialRack(srv.Addr(), 0)
	t.Cleanup(func() { c.Close() })
	tcpClients := make(map[string]RackClient, racks)
	for id := range served {
		tcpClients[id] = c.Rack(id)
	}

	const budget = 2400 // below total demand: every rack is capped
	tcpRoom, err := NewRoomWorker(core.NewShifting("room", 0, tcpProxies...), budget, core.GlobalPriority, tcpClients)
	if err != nil {
		t.Fatal(err)
	}
	localRoom, err := NewRoomWorker(core.NewShifting("room", 0, localProxies...), budget, core.GlobalPriority, local)
	if err != nil {
		t.Fatal(err)
	}
	hits := reg.CounterVec("capmaestro_rpc_delta_hits_total", "", "role").With("server")
	for p := 0; p < periods; p++ {
		ctx := context.Background()
		tcpAlloc, stats, err := tcpRoom.RunPeriod(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if stats.GatherErrors+stats.ApplyErrors+stats.BudgetsHeld != 0 {
			t.Fatalf("period %d degraded: %+v", p, stats)
		}
		localAlloc, _, err := localRoom.RunPeriod(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < racks; r++ {
			id := tcpWorkers[r].ID()
			if got, want := tcpAlloc.NodeBudgets[id], localAlloc.NodeBudgets[id]; got != want || got <= 0 {
				t.Fatalf("period %d: rack %s allocated %v W over TCP, %v W in process", p, id, got, want)
			}
			if got, want := tcpWorkers[r].LastBudget(), localWorkers[r].LastBudget(); got != want {
				t.Fatalf("period %d: rack %s enforces %v W over TCP, %v W in process", p, id, got, want)
			}
		}
		if got, want := hits.Value(), float64(racks*p); got != want {
			t.Fatalf("after period %d: %v server delta hits, want %v", p, got, want)
		}
	}
}

// TestTransportChaosBothCodecs runs a room worker over a real TCP
// transport through the dropping proxy with fault injection layered on
// top: the transport must survive FaultyClient faults and WithRPCRetry
// reconnects with trace spans intact, and still land delta hits between
// the failures.
func TestTransportChaosBothCodecs(t *testing.T) {
	t.Run(CodecBinary, testTransportChaos)
}

// testTransportChaos runs as the one subtest of
// TestTransportChaosBothCodecs, named after the binary codec, the
// transport's only wire codec. The test's name dates from when a JSON
// codec ran beside it.
func testTransportChaos(t *testing.T) {
	seed := chaosSeed(t)
	const periods = 10
	worker, err := NewRackWorker("tcprack",
		core.NewShifting("tcprack", 0, leaf("t0", "T0", 1, 400), leaf("t1", "T1", 0, 400)),
		core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	srv, err := ServeRack(worker, "127.0.0.1:0", WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy := newDroppingProxy(t, srv.Addr(), 4)
	tcpClient := DialRack(proxy.addr(), time.Second,
		WithTelemetry(reg), WithRPCRetry(3, 2*time.Millisecond))
	defer tcpClient.Close()
	flaky := NewFaultyClient(tcpClient, seed)
	flaky.SetErrorRate(0.2)

	rec := flightrec.NewRecorder(periods)
	dumpTraceOnFailure(t, rec)
	room, err := NewRoomWorker(
		core.NewShifting("room", 0, core.NewProxy("tcprack", core.NewSummary())),
		2000, core.GlobalPriority,
		map[string]RackClient{"tcprack": flaky},
		WithFlightRecorder(rec), WithStalenessBound(3))
	if err != nil {
		t.Fatal(err)
	}
	for period := 0; period < periods; period++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, _, err := room.RunPeriod(ctx)
		cancel()
		if err != nil {
			t.Fatalf("period %d: %v", period, err)
		}
	}
	if proxy.dropCount() == 0 {
		t.Fatal("proxy never dropped a request; chaos did not engage")
	}
	// Trace invariants: every period has a root span carrying its
	// trace ID, and rack-side spans crossed the transport.
	rackSpans := 0
	for _, pr := range rec.Records() {
		roots := 0
		for _, s := range pr.Spans {
			if s.TraceID != pr.TraceID {
				t.Fatalf("record %d: span %s has trace %q, want %q", pr.ID, s.Name, s.TraceID, pr.TraceID)
			}
			if s.ParentID == "" {
				roots++
			}
			if s.Node == "tcprack" && (s.Name == "rack.gather" || s.Name == "rack.apply") {
				rackSpans++
			}
		}
		if roots != 1 {
			t.Fatalf("record %d: %d roots, want 1", pr.ID, roots)
		}
	}
	if rackSpans == 0 {
		t.Fatal("no rack-side spans survived the transport")
	}
	deltaVec := reg.CounterVec("capmaestro_rpc_delta_hits_total", "", "role")
	if got := deltaVec.With("client").Value(); got == 0 {
		t.Fatal("chaos run landed no delta hits")
	}
}

// slowRack is a rack whose gathers take delay to answer.
type slowRack struct {
	RackClient
	delay time.Duration
}

func (r slowRack) Gather(ctx context.Context) (core.Summary, error) {
	time.Sleep(r.delay)
	return r.RackClient.Gather(ctx)
}

// TestCodecDecodeHistogramExcludesWaits pins what the decode histogram
// times: decoding only. A server idle for 200 ms between two requests and
// a rack taking 100 ms to answer must both stay out of it, on the server
// and on the client.
func TestCodecDecodeHistogramExcludesWaits(t *testing.T) {
	t.Run(CodecBinary, testCodecDecodeHistogramExcludesWaits)
}

// testCodecDecodeHistogramExcludesWaits runs as the one subtest of
// TestCodecDecodeHistogramExcludesWaits, named after the binary codec, the
// transport's only wire codec.
func testCodecDecodeHistogramExcludesWaits(t *testing.T) {
	const idle, handling = 200 * time.Millisecond, 100 * time.Millisecond
	w, err := NewRackWorker("r", rackOf("r", 4, 400), core.GlobalPriority, nil)
	if err != nil {
		t.Fatal(err)
	}
	srvReg, cliReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	srv, err := ServeRacks(map[string]RackClient{"r": slowRack{LocalClient{w}, handling}},
		"127.0.0.1:0", WithTelemetry(srvReg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := DialRack(srv.Addr(), 5*time.Second, WithTelemetry(cliReg))
	defer c.Close()
	rack := c.Rack("r")
	ctx := context.Background()
	if _, err := rack.Gather(ctx); err != nil {
		t.Fatal(err)
	}
	time.Sleep(idle)
	if _, err := rack.Gather(ctx); err != nil {
		t.Fatal(err)
	}
	for _, side := range []struct {
		role string
		reg  *telemetry.Registry
	}{{"server", srvReg}, {"client", cliReg}} {
		dec := side.reg.HistogramVec("capmaestro_rpc_codec_seconds", "", codecBuckets,
			"role", "codec", "op").With(side.role, CodecBinary, "decode")
		if dec.Count() != 2 {
			t.Fatalf("%s: %d decodes recorded, want 2", side.role, dec.Count())
		}
		if sum := time.Duration(dec.Sum() * float64(time.Second)); sum > 20*time.Millisecond {
			t.Errorf("%s: decode histogram sums to %v; it counts waiting", side.role, sum)
		}
	}
}

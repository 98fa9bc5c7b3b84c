package main

import (
	"capmaestro/internal/controlplane"
	"capmaestro/internal/telemetry"
)

// histStat is a histogram's observation count and sum.
type histStat struct{ count, sum float64 }

func (h histStat) minus(b histStat) histStat { return histStat{h.count - b.count, h.sum - b.sum} }

// meanMs is the mean observation in milliseconds (observations are in
// seconds); 0 with no observations.
func (h histStat) meanMs() float64 { return ratio(h.sum*1000, h.count) }

// telemetrySnap holds the control-plane telemetry the benchmark reads
// from the registry it passed the program. It reads no decode histogram:
// capmaestro_rpc_codec_seconds{op="decode"} includes the wait for the
// next message on a blocking read, so it measures idle time, not decode
// work.
type telemetrySnap struct {
	phase              [3]histStat // room gather, allocate, push
	aggGather, aggPush histStat    // level-1 aggregator waves
	bytesIn, bytesOut  float64     // client side
	frames             float64     // client round trips
	encode             histStat    // both roles, every codec
	deltaHits          float64     // server side
	retries, errors    float64
}

var (
	rpcOps = []string{"gather", "budget", "ping", "batch-gather", "batch-budget"}
	roles  = []string{"client", "server"}
	codecs = []string{controlplane.CodecJSON, controlplane.CodecBinary}
)

// readTelemetry snapshots the families the program registered. Reading
// a family the program never registered (the level histograms of a flat
// hierarchy) registers it empty, which reads as zero.
func readTelemetry(reg *telemetry.Registry) telemetrySnap {
	hist := func(name string, labels []string, values ...string) histStat {
		h := reg.HistogramVec(name, "", nil, labels...).With(values...)
		return histStat{float64(h.Count()), h.Sum()}
	}
	counter := func(name string, labels []string, values ...string) float64 {
		return reg.CounterVec(name, "", labels...).With(values...).Value()
	}
	var s telemetrySnap
	for i, phase := range []string{"gather", "allocate", "push"} {
		s.phase[i] = hist("capmaestro_controlplane_phase_seconds", []string{"phase"}, phase)
	}
	s.aggGather = hist("capmaestro_controlplane_level_gather_seconds", []string{"level"}, "1")
	s.aggPush = hist("capmaestro_controlplane_level_push_seconds", []string{"level"}, "1")
	s.bytesIn = counter("capmaestro_rpc_bytes_total", []string{"role", "direction"}, "client", "in")
	s.bytesOut = counter("capmaestro_rpc_bytes_total", []string{"role", "direction"}, "client", "out")
	for _, op := range rpcOps {
		s.frames += hist("capmaestro_rpc_seconds", []string{"role", "op"}, "client", op).count
		s.errors += counter("capmaestro_rpc_errors_total", []string{"role", "op"}, "client", op)
	}
	for _, role := range roles {
		for _, c := range codecs {
			e := hist("capmaestro_rpc_codec_seconds", []string{"role", "codec", "op"}, role, c, "encode")
			s.encode = histStat{s.encode.count + e.count, s.encode.sum + e.sum}
		}
		s.errors += counter("capmaestro_rpc_protocol_errors_total", []string{"role"}, role)
	}
	s.deltaHits = counter("capmaestro_rpc_delta_hits_total", []string{"role"}, "server")
	s.retries = counter("capmaestro_rpc_retries_total", []string{"role"}, "client")
	return s
}

// to returns how far each value moved from s to the later snapshot b.
func (s telemetrySnap) to(b telemetrySnap) telemetrySnap {
	d := telemetrySnap{
		aggGather: b.aggGather.minus(s.aggGather),
		aggPush:   b.aggPush.minus(s.aggPush),
		bytesIn:   b.bytesIn - s.bytesIn,
		bytesOut:  b.bytesOut - s.bytesOut,
		frames:    b.frames - s.frames,
		encode:    b.encode.minus(s.encode),
		deltaHits: b.deltaHits - s.deltaHits,
		retries:   b.retries - s.retries,
		errors:    b.errors - s.errors,
	}
	for i := range d.phase {
		d.phase[i] = b.phase[i].minus(s.phase[i])
	}
	return d
}

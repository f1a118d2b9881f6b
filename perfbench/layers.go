package main

import (
	"time"

	tart "repro"
	"repro/internal/trace"
	"repro/internal/trace/span"
)

// counters is a cluster-wide reading of the counters the runtime already
// exports, summed over every engine.
type counters struct {
	m            tart.Metrics
	bytesSent    float64 // tart_transport_bytes_total{dir="sent"}
	writevs      float64 // tart_transport_frames_per_writev: observations
	writevFrames float64 // ... and the frames they carried
	fallbacks    float64 // tart_codec_fallbacks_total
	ckptFsyncs   float64 // tart_ckpt_store_fsyncs_total
	replayed     float64 // tart_coldstart_replayed_records
	delivered    map[string]float64
}

func readCounters(c *tart.Cluster) (counters, error) {
	out := counters{delivered: map[string]float64{}}
	for _, e := range c.Engines() {
		m, err := c.Metrics(e)
		if err != nil {
			return out, err
		}
		out.m.Delivered += m.Delivered
		out.m.OutOfOrder += m.OutOfOrder
		out.m.ProbesSent += m.ProbesSent
		out.m.SilencesSent += m.SilencesSent
		out.m.PessimismDelay += m.PessimismDelay
		out.m.PessimismEpisodes += m.PessimismEpisodes
		out.m.Checkpoints += m.Checkpoints
		out.m.CheckpointBytes += m.CheckpointBytes
		fams, err := c.MetricFamilies(e)
		if err != nil {
			return out, err
		}
		for _, f := range fams {
			for _, s := range f.Series {
				switch f.Name {
				case trace.MetricTransportBytes:
					if s.Get("dir") == "sent" {
						out.bytesSent += s.Value
					}
				case trace.MetricFramesPerWritev:
					if s.Hist != nil {
						out.writevs += float64(s.Hist.Count)
						out.writevFrames += s.Hist.Sum
					}
				case trace.MetricCodecFallbacks:
					out.fallbacks += s.Value
				case trace.MetricCkptStoreFsyncs:
					out.ckptFsyncs += s.Value
				case trace.MetricColdstartReplayed:
					out.replayed += s.Value
				case trace.MetricDelivered:
					out.delivered[s.Get("component")] += s.Value
				}
			}
		}
	}
	return out, nil
}

// sub returns the counter increase from before to c.
func (c counters) sub(before counters) counters {
	d := c
	d.m.Delivered -= before.m.Delivered
	d.m.OutOfOrder -= before.m.OutOfOrder
	d.m.ProbesSent -= before.m.ProbesSent
	d.m.SilencesSent -= before.m.SilencesSent
	d.m.PessimismDelay -= before.m.PessimismDelay
	d.m.PessimismEpisodes -= before.m.PessimismEpisodes
	d.m.Checkpoints -= before.m.Checkpoints
	d.m.CheckpointBytes -= before.m.CheckpointBytes
	d.bytesSent -= before.bytesSent
	d.writevs -= before.writevs
	d.writevFrames -= before.writevFrames
	d.fallbacks -= before.fallbacks
	d.ckptFsyncs -= before.ckptFsyncs
	d.replayed -= before.replayed
	return d
}

// phaseTimes attributes the critical path of every origin the span layer
// traced inside [from, to] across the runtime's phases, and returns per
// phase the per-origin times in microseconds (zero where an origin spent
// none), plus the spans themselves.
func phaseTimes(c *tart.Cluster, from, to time.Time) (map[span.Phase][]float64, []tart.Span, error) {
	var spans []tart.Span
	for _, e := range c.Engines() {
		ss, err := c.Spans(e)
		if err != nil {
			return nil, nil, err
		}
		for _, s := range ss {
			if !s.Start.Before(from) && !s.End.After(to) {
				spans = append(spans, s)
			}
		}
	}
	out := map[span.Phase][]float64{}
	for _, b := range tart.CriticalPathTable(spans) {
		for _, p := range span.Phases() {
			out[p] = append(out[p], float64(b.ByPhase[p].Nanoseconds())/1e3)
		}
	}
	return out, spans, nil
}

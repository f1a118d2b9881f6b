package main

import (
	"fmt"
	"runtime"
	"time"

	tart "repro"
	"repro/internal/trace/span"
)

// steady describes one cluster configuration measured in its steady
// state.
type steady struct {
	setups  int           // launches timed for setup_s; the last one is measured
	seconds float64       // window length
	sub     time.Duration // sub-window length; subWindow when 0
	traced  bool
	load    func(g *generator)                               // sets the loop, its rate and its keys
	launch  func(clock *handlerClock) (*tart.Cluster, error) // starts one cluster
	warm    func(g *generator) error                         // returns when the window may open
	opened  func(before counters)                            // optional: sees the counters as the window opens
	after   func(g *generator) error                         // optional: runs after the window, load halted
	dryStop func(c *tart.Cluster)                            // optional: tears down a dry set-up instead of Stop
}

// measureSteady launches the configuration s.setups times, drives the
// last launch with the generator past the warm-up, measures one window,
// runs s.after and drains.
func measureSteady(cfg runConfig, rep *report, s steady) (*measurement, error) {
	m := &measurement{chk: newChecker()}
	rep.checks = append(rep.checks, m.chk)
	rec := &recorder{}
	g := newGenerator(cfg.seed, m.chk, rec)
	s.load(g)
	g.drop = cfg.drop
	var clock *handlerClock
	if s.traced {
		clock = &handlerClock{}
		g.spans = &spanLog{}
	}
	var c *tart.Cluster
	for i := 0; i < s.setups; i++ {
		target := g
		if i < s.setups-1 {
			target = newGenerator(cfg.seed, newChecker(), &recorder{})
		}
		t0 := time.Now()
		cl, err := s.launch(clock)
		if err != nil {
			return nil, err
		}
		if err := target.attach(cl); err != nil {
			cl.Stop()
			return nil, err
		}
		m.setup = append(m.setup, time.Since(t0).Seconds())
		if i < s.setups-1 {
			if s.dryStop != nil {
				s.dryStop(cl)
			} else {
				cl.Stop()
			}
			runtime.GC() // keep the dry set-ups' garbage out of peak_rss_mb
		} else {
			c = cl
		}
	}
	defer c.Stop()

	g.start()
	defer g.halt()
	if err := s.warm(g); err != nil {
		return nil, err
	}
	before, err := readCounters(c)
	if err != nil {
		return nil, err
	}
	if s.opened != nil {
		s.opened(before)
	}
	if s.sub == 0 {
		s.sub = subWindow
	}
	m.win = measureWindow(rec, clock, s.seconds, s.sub)
	m.peakRSS = peakRSSMB()
	after, err := readCounters(c)
	if err != nil {
		return nil, err
	}
	m.delta = after.sub(before)
	if after.fallbacks > 0 {
		rep.broken = append(rep.broken, fmt.Sprintf("%.0f payloads fell back to the gob codec", after.fallbacks))
	}
	if s.traced {
		if m.phases, m.spans, err = phaseTimes(c, m.win.begin.at, m.win.end.at); err != nil {
			return nil, err
		}
		m.emits = g.spans.durations("engine.emit", m.win.begin.at, m.win.end.at)
		m.handler = clock.samples()
		m.bench = g.spans.startedSince(m.win.begin.at)
	}
	g.halt()
	if s.after != nil {
		if err := s.after(g); err != nil {
			return nil, err
		}
	}
	if err := g.end(); err != nil {
		return nil, err
	}
	if !g.drain(drainTimeout) {
		rep.notef("drain: %d inputs still without output after %v", m.chk.pending(), drainTimeout)
	}
	m.chk.finish()
	return m, nil
}

// measurement is one measured window of one cluster configuration.
type measurement struct {
	setup   []float64 // seconds per set-up
	win     window
	peakRSS float64 // MiB, as the window closed
	chk     *checker
	delta   counters // counter increase over the window
	phases  map[span.Phase][]float64
	spans   []tart.Span
	handler []float64 // us
	emits   []float64 // us
	bench   []benchSpan
}

// e2e fills the end-to-end metrics from the measurement.
func (m *measurement) e2e(rep *report) {
	w := m.win
	q := w.quiet()
	rep.values["setup_s"] = median(m.setup)
	rep.values["throughput_msgs_s"] = q.throughput()
	rep.values["latency_p50_ms"] = quantile(q.lat, 0.5)
	rep.values["latency_p99_ms"] = quantile(q.lat, 0.99)
	rep.values["cpu_us_per_msg"] = q.cpuUsPerMsg()
	rep.values["allocs_per_msg"] = q.allocsPerMsg()
	rep.values["peak_rss_mb"] = m.peakRSS
	if len(w.genLag) > 0 {
		rep.notef("metric gen_lag_p99_ms %.6f ms (%d samples)", quantile(w.genLag, 0.99), len(w.genLag))
	}
	rep.notef("window: %.3f s as %d sub-windows, %d outputs, %d latency samples; peak RSS read as the window closed",
		w.seconds(), len(w.subs), int(w.msgs()), len(w.lat))
	rep.notef("set-up: %d runs, p10 %.6f s, median %.6f s, p90 %.6f s",
		len(m.setup), quantile(m.setup, 0.1), median(m.setup), quantile(m.setup, 0.9))
	rep.notef("whole window: %.1f msgs/s, %.2f us CPU per msg, latency p50 %.3f ms p99 %.3f ms",
		w.throughput(), w.cpuUsPerMsg(), quantile(w.lat, 0.5), quantile(w.lat, 0.99))
	rep.notef("end-to-end metrics pool the %d quietest sub-windows (%.3f s, %d latency samples for latency_p50_ms and latency_p99_ms); host CPU stolen by other guests: %.1f%% over the window, %.1f%% in the pool",
		q.n, q.seconds, len(q.lat), 100*w.stealFrac(), 100*q.stealFrac())
}

// layers fills the per-layer metrics every workload has from the traced
// measurement; untraced is the same configuration measured without
// tracing in the same process.
func (m *measurement) layers(rep *report, untraced *measurement) {
	msgs := m.win.msgs()
	d := m.delta
	v := rep.values
	v["engine.emit_us_p50"] = quantile(m.emits, 0.5)
	v["engine.emit_us_p99"] = quantile(m.emits, 0.99)
	v["sched.queueing_us_p50"] = quantile(m.phases[span.PhaseQueueing], 0.5)
	v["sched.deliveries_per_msg"] = float64(d.m.Delivered) / msgs
	v["sched.out_of_rt_order_frac"] = ratio(float64(d.m.OutOfOrder), float64(d.m.Delivered))
	v["app.handler_us_p50"] = quantile(m.handler, 0.5)
	v["silence.pessimism_us_per_msg"] = ratio(float64(d.m.PessimismDelay.Microseconds()), float64(d.m.PessimismEpisodes))
	v["silence.probes_per_msg"] = float64(d.m.ProbesSent) / msgs
	v["silence.promises_per_msg"] = float64(d.m.SilencesSent) / msgs
	v["transport.transport_us_p50"] = quantile(m.phases[span.PhaseTransport], 0.5)
	v["transport.linger_us_p50"] = quantile(m.phases[span.PhaseLinger], 0.5)
	v["transport.bytes_per_msg"] = d.bytesSent / msgs
	v["transport.frames_per_writev"] = ratio(d.writevFrames, d.writevs)
	v["msg.codec_fallbacks"] = d.fallbacks
	v["trace.tracing_overhead_frac"] = m.win.cpuUsPerMsg()/untraced.win.cpuUsPerMsg() - 1
	for _, k := range []string{"trace.observe_cpu_us_per_msg", "wal.append_us_p50", "wal.append_us_p99",
		"wal.replayed_records", "checkpoint.capture_ms_p50", "checkpoint.bytes_per_ckpt",
		"checkpoint.fsyncs_per_ckpt", "cluster.reopen_ms", "engine.resume_ms",
		"engine.stutter_outputs", "recovery_ms", "gen_lag_p99_ms"} {
		v[k] = 0
	}
	if len(untraced.win.genLag) > 0 {
		v["gen_lag_p99_ms"] = quantile(untraced.win.genLag, 0.99)
	}

	var share []string
	var total float64
	for _, p := range span.Phases() {
		total += sum(m.phases[p])
	}
	for _, p := range span.Phases() {
		share = append(share, fmt.Sprintf("%s=%.1f%%", p, 100*ratio(sum(m.phases[p]), total)))
	}
	rep.notef("span layer: %d spans, %d traced origins; critical-path self time by phase: %v",
		len(m.spans), len(m.phases[span.PhaseQueueing]), share)
	rep.notef("samples: emits=%d handler=%d", len(m.emits), len(m.handler))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

package main

import (
	"fmt"
	"time"

	tart "repro"
)

const (
	// warmDeliveries is the fanin-observed warm-up: the window opens only
	// once every component has delivered more than this many messages,
	// the audit trail's bound, so the window sees the steady state of a
	// long-lived deployment rather than the first minute of one.
	warmDeliveries = 1 << 16
	// faninInFlight is the closed loop's inputs in flight per source: 64
	// clients in all, so the latency percentiles are set by queueing
	// behind the merge more than by any single stall of the host.
	faninInFlight = 32
	// faninSetups is how many times a fanin-observed run launches the
	// cluster to time set-up; the last launch is the one measured.
	faninSetups = 101
	// spanSampleN is the traced run's span sampling: one origin in N.
	spanSampleN = 32
	// drainTimeout bounds the wait for outstanding outputs after a window.
	drainTimeout = 5 * time.Second
)

func runFanin(cfg runConfig) (*report, error) {
	rep := newReport()
	if !cfg.trace {
		m, err := faninMeasure(cfg, rep, true, false, faninSetups, cfg.seconds)
		if err != nil {
			return nil, err
		}
		m.e2e(rep)
		return rep, nil
	}
	half := cfg.seconds / 2
	observed, err := faninMeasure(cfg, rep, true, false, 1, half)
	if err != nil {
		return nil, err
	}
	plain, err := faninMeasure(cfg, rep, false, false, 1, half)
	if err != nil {
		return nil, err
	}
	traced, err := faninMeasure(cfg, rep, true, true, 1, half)
	if err != nil {
		return nil, err
	}
	traced.layers(rep, observed)
	rep.values["trace.observe_cpu_us_per_msg"] = observed.win.cpuUsPerMsg() - plain.win.cpuUsPerMsg()
	rep.notef("cpu_us_per_msg: recorder on %.2f, recorder off %.2f, recorder on and traced %.2f",
		observed.win.cpuUsPerMsg(), plain.win.cpuUsPerMsg(), traced.win.cpuUsPerMsg())
	rep.spans = map[string]any{"runtime": traced.spans, "bench": traced.bench}
	return rep, nil
}

// faninMeasure measures the single-engine Fig. 1 fan-in under the closed
// loop, once every component is past the warm-up.
func faninMeasure(cfg runConfig, rep *report, recorderOn, traced bool, setups int, seconds float64) (*measurement, error) {
	opts := []tart.ClusterOption{tart.WithSourceSilenceEvery(250 * time.Microsecond)}
	if recorderOn {
		opts = append(opts, tart.WithFlightRecorder(""))
	}
	if traced {
		opts = append(opts, tart.WithSpanTracing(spanSampleN))
	}
	return measureSteady(cfg, rep, steady{
		setups:  setups,
		seconds: seconds,
		traced:  traced,
		load:    func(g *generator) { g.inFlight = faninInFlight },
		launch: func(clock *handlerClock) (*tart.Cluster, error) {
			return tart.Launch(fig1(&relay{clock: clock}, clock, oneEngine), opts...)
		},
		warm: func(g *generator) error {
			deadline := time.Now().Add(120 * time.Second)
			for g.chk.delivered(1) <= warmDeliveries || g.chk.delivered(2) <= warmDeliveries {
				if time.Now().After(deadline) {
					return fmt.Errorf("fanin-observed: warm-up not reached in 120s (%s)", g.chk)
				}
				time.Sleep(5 * time.Millisecond)
			}
			return nil
		},
		opened: func(before counters) {
			for _, comp := range []string{"sender1", "sender2", "merger"} {
				if before.delivered[comp] <= warmDeliveries {
					rep.broken = append(rep.broken, fmt.Sprintf("window opened with %s at %.0f deliveries", comp, before.delivered[comp]))
				}
			}
			rep.notef("warm-up: window opened at deliveries sender1=%.0f sender2=%.0f merger=%.0f (rule: each > %d); recorder=%v traced=%v",
				before.delivered["sender1"], before.delivered["sender2"], before.delivered["merger"], warmDeliveries, recorderOn, traced)
		},
	})
}

package main

import (
	"fmt"
	"net"
	"time"

	tart "repro"
)

const (
	// tcpRate is tcp-pipeline's arrival rate per source, well below the
	// rate the two-engine pipeline saturates at.
	tcpRate = 1000
	// openWarmup is how long the open-loop workloads run before their
	// window opens.
	openWarmup = time.Second
	// tcpSetups is how many times a tcp-pipeline run launches the engines
	// to time set-up; the last launch is the one measured.
	tcpSetups = 101
)

// freeAddrs reserves n distinct free loopback ports from the kernel, so
// back-to-back runs never collide on ports.
func freeAddrs(n int) ([]string, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve loopback port: %w", err)
		}
		ls = append(ls, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// senders on engine A, merger on engine B, as in Fig. 5.
func splitEngines(c string) string {
	if c == "merger" {
		return "B"
	}
	return "A"
}

func runTCP(cfg runConfig) (*report, error) {
	rep := newReport()
	if !cfg.trace {
		m, err := tcpMeasure(cfg, rep, false, tcpSetups, cfg.seconds)
		if err != nil {
			return nil, err
		}
		m.e2e(rep)
		return rep, nil
	}
	half := cfg.seconds / 2
	plain, err := tcpMeasure(cfg, rep, false, 1, half)
	if err != nil {
		return nil, err
	}
	traced, err := tcpMeasure(cfg, rep, true, 1, half)
	if err != nil {
		return nil, err
	}
	traced.layers(rep, plain)
	rep.spans = map[string]any{"runtime": traced.spans, "bench": traced.bench}
	return rep, nil
}

// tcpMeasure measures the two-engine Fig. 1 pipeline over loopback TCP
// under the open loop.
func tcpMeasure(cfg runConfig, rep *report, traced bool, setups int, seconds float64) (*measurement, error) {
	m, err := measureSteady(cfg, rep, steady{
		setups:  setups,
		seconds: seconds,
		traced:  traced,
		load:    func(g *generator) { g.rate = tcpRate },
		launch: func(clock *handlerClock) (*tart.Cluster, error) {
			addrs, err := freeAddrs(2)
			if err != nil {
				return nil, err
			}
			opts := []tart.ClusterOption{
				tart.WithTCP(map[string]string{"A": addrs[0], "B": addrs[1]}),
				tart.WithSourceSilenceEvery(500 * time.Microsecond),
			}
			if traced {
				opts = append(opts, tart.WithSpanTracing(spanSampleN))
			}
			return tart.Launch(fig1(&relay{clock: clock}, clock, splitEngines), opts...)
		},
		warm: func(*generator) error {
			time.Sleep(openWarmup)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	rep.notef("open loop: %d arrivals/s per source, offered %.0f msgs/s, delivered %.0f msgs/s, generator lag p50 %.3f ms p99 %.3f ms; traced=%v",
		tcpRate, 2.0*tcpRate, m.win.throughput(), quantile(m.win.genLag, 0.5), quantile(m.win.genLag, 0.99), traced)
	return m, nil
}

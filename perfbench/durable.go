package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	tart "repro"
	"repro/internal/wal"
)

const (
	// durableRate is durable-restart's arrival rate per source; every
	// emit is fsync'd to the WAL before it is delivered.
	durableRate = 500
	// tableKeys is the merger's preloaded table size; keys are Zipf-skewed
	// over it.
	tableKeys = 100_000
	// ckptEvery is the cadence at which the benchmark checkpoints the
	// engine during the steady phase.
	ckptEvery = time.Second
	// restarts is how many cold restarts a run makes after its window.
	restarts = 5
	// walSuffix is the number of inputs emitted between the checkpoint and
	// the Stop of every restart: the WAL suffix Reopen must replay.
	walSuffix = 100
	// durableSetups is how many times a durable-restart run sets up to time
	// it; the last set-up is the one measured.
	durableSetups = 5
	// walAppends is how many of the workload's records the traced run
	// appends to a throwaway file WAL to time wal.AppendInput.
	walAppends = 500
	// restartTimeout bounds the wait for the first output after Reopen.
	restartTimeout = 60 * time.Second
)

// refFold is the generator's reference fold: the merger's table and
// digest recomputed from the preload and every input emitted so far.
type refFold struct {
	table  map[uint64]uint64
	digest uint64
	folded [3]int // per source: inputs of g.log already folded
}

func newRefFold(seed uint64) *refFold {
	f := &refFold{table: make(map[uint64]uint64, tableKeys)}
	for k := uint64(0); k < tableKeys; k++ {
		v := preloadValue(seed, k)
		f.table[k] = v
		f.digest += mix(k, v)
	}
	return f
}

// digestAfter folds every input the generator has emitted and returns the
// digest the merger must hold once they are all applied.
func (f *refFold) digestAfter(g *generator) uint64 {
	for s := 1; s <= 2; s++ {
		for _, r := range g.log[s][f.folded[s]:] {
			old := f.table[r.Key]
			f.table[r.Key] = old + r.Val
			f.digest += mix(r.Key, old+r.Val) - mix(r.Key, old)
		}
		f.folded[s] = len(g.log[s])
	}
	return f.digest
}

// durableRun is one durable-restart deployment: its state directory, the
// current incarnation, and the load driving it.
type durableRun struct {
	dir   string
	opts  []tart.ClusterOption
	c     *tart.Cluster
	g     *generator
	ref   *refFold
	clock *handlerClock

	ckptStop chan struct{}
	ckptDone chan struct{}
	ckptErr  error
}

// launchDurable preloads the merger's table, launches the engine over a
// fresh state directory and takes the initial durable checkpoint.
func launchDurable(seed uint64, clock *handlerClock, traced bool) (*durableRun, error) {
	dir, err := os.MkdirTemp(filepath.Join(outDir, "tmp"), "durable-")
	if err != nil {
		return nil, err
	}
	d := &durableRun{dir: dir, clock: clock}
	// The sources' clock runs from this first launch across every
	// restart, as a wall clock would across process restarts. The
	// default clock restarts from zero in each incarnation, and Reopen
	// does not restore the silence a source already promised, so a
	// reopened source would stamp new inputs inside intervals the
	// stopped incarnation promised silent, and the merger would order
	// them differently from the run it replays.
	epoch := time.Now()
	d.opts = []tart.ClusterOption{
		tart.WithDurableStore(dir),
		tart.WithManualClock(func() tart.VirtualTime { return tart.VirtualTime(time.Since(epoch).Nanoseconds()) }),
		// After WithManualClock, which turns source silence off.
		tart.WithSourceSilenceEvery(500 * time.Microsecond),
	}
	if traced {
		d.opts = append(d.opts, tart.WithSpanTracing(spanSampleN))
	}
	table := tart.NewStateMap[uint64, uint64]()
	var digest uint64
	for k := uint64(0); k < tableKeys; k++ {
		v := preloadValue(seed, k)
		table.Put(k, v)
		digest += mix(k, v)
	}
	d.c, err = tart.Launch(fig1(&stateMerger{State: table, Digest: digest, clock: clock}, clock, oneEngine), d.opts...)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if _, err := d.c.Checkpoint("A"); err != nil {
		d.close()
		return nil, fmt.Errorf("initial checkpoint: %w", err)
	}
	return d, nil
}

func (d *durableRun) close() {
	if d.ckptStop != nil {
		_ = d.stopCheckpoints() // a run that already failed reports its own error
	}
	if d.c != nil {
		d.c.Stop()
	}
	os.RemoveAll(d.dir)
}

// checkpoint takes one timed checkpoint.
func (d *durableRun) checkpoint() error {
	t0 := time.Now()
	_, err := d.c.Checkpoint("A")
	d.g.spans.add("checkpoint.capture", t0, time.Now())
	return err
}

// startCheckpoints checkpoints on the fixed cadence until stopCheckpoints.
func (d *durableRun) startCheckpoints() {
	d.ckptStop, d.ckptDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(d.ckptDone)
		t := time.NewTicker(ckptEvery)
		defer t.Stop()
		for {
			select {
			case <-d.ckptStop:
				return
			case <-t.C:
				if err := d.checkpoint(); err != nil && d.ckptErr == nil {
					d.ckptErr = err
				}
			}
		}
	}()
}

func (d *durableRun) stopCheckpoints() error {
	close(d.ckptStop)
	<-d.ckptDone
	d.ckptStop = nil
	return d.ckptErr
}

// verifyDigest drains the pipeline and compares the merger's digest, as
// carried by the newest output, with the reference fold.
func (d *durableRun) verifyDigest(rep *report, where string) {
	if !d.g.drain(drainTimeout) {
		rep.notef("drain before %s: %d inputs still without output", where, d.g.chk.pending())
	}
	got, want := d.g.lastOutput().Val, d.ref.digestAfter(d.g)
	d.g.chk.verify(got == want)
	if got != want {
		rep.notef("state digest mismatch %s: merger %#x, reference %#x", where, got, want)
	}
}

// checkCodec flags the run when any payload the current incarnation
// handled fell back to the gob codec: Req registers a binary codec.
func (d *durableRun) checkCodec(rep *report) error {
	cs, err := readCounters(d.c)
	if err != nil {
		return err
	}
	if cs.fallbacks > 0 {
		rep.broken = append(rep.broken, fmt.Sprintf("%.0f payloads fell back to the gob codec", cs.fallbacks))
	}
	return nil
}

// restart is one cold restart; it returns reopen, resume and recovery
// times and the WAL records Reopen replayed.
func (d *durableRun) restart(rep *report) (reopen, resume, recovery time.Duration, replayed float64, err error) {
	d.verifyDigest(rep, "checkpoint")
	if err := d.checkpoint(); err != nil {
		return 0, 0, 0, 0, err
	}
	for i := 0; i < walSuffix; i++ {
		d.g.emit(uint8(1+i%2), time.Now())
	}
	d.verifyDigest(rep, "stop")
	if err := d.checkCodec(rep); err != nil {
		return 0, 0, 0, 0, err
	}
	d.c.Stop()
	d.g.chk.restarted()

	// A fresh process: new component objects, state from the directory.
	app := fig1(&stateMerger{clock: d.clock}, d.clock, oneEngine)
	t0 := time.Now()
	d.c, err = tart.Reopen(app, d.opts...)
	t1 := time.Now()
	d.g.spans.add("cluster.reopen", t0, t1)
	if err != nil {
		d.c = nil
		return 0, 0, 0, 0, fmt.Errorf("reopen: %w", err)
	}
	if err := d.g.attach(d.c); err != nil {
		return 0, 0, 0, 0, err
	}
	arrived, err := d.g.emitAndWait(1, restartTimeout)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	d.verifyDigest(rep, "after reopen")
	cs, err := readCounters(d.c)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	d.g.chk.verify(cs.replayed == walSuffix)
	if cs.replayed != walSuffix {
		rep.notef("reopen replayed %.0f WAL records, want %d", cs.replayed, walSuffix)
	}
	return t1.Sub(t0), arrived.Sub(t1), arrived.Sub(t0), cs.replayed, nil
}

// durableMeasurement adds the restart phase to a measurement.
type durableMeasurement struct {
	*measurement
	g                        *generator
	reopen, resume, recovery []float64 // ms
	replayed                 []float64
	ckptMs                   []float64
}

// durableMeasure measures the steady phase under the open loop with the
// benchmark checkpointing on its cadence, then makes the restarts.
func durableMeasure(cfg runConfig, rep *report, traced bool, setups int, seconds float64) (*durableMeasurement, error) {
	dm := &durableMeasurement{}
	var cur *durableRun // the newest set-up's deployment
	defer func() {
		if cur != nil {
			cur.close()
		}
	}()
	m, err := measureSteady(cfg, rep, steady{
		setups:  setups,
		seconds: seconds,
		// One checkpoint in every sub-window, so that ranking them by
		// stolen time cannot favour the ones without a checkpoint.
		sub:    ckptEvery,
		traced: traced,
		load: func(g *generator) {
			g.rate = durableRate
			g.keep = true
			g.chk.replays = true
			var zipf [3]*rand.Zipf
			for s := 1; s <= 2; s++ {
				zipf[s] = rand.NewZipf(g.rngs[s], 1.1, 1, tableKeys-1)
			}
			g.keys = func(src uint8) (uint64, uint64) { return zipf[src].Uint64(), 1 + g.rngs[src].Uint64N(7) }
		},
		launch: func(clock *handlerClock) (*tart.Cluster, error) {
			d, err := launchDurable(cfg.seed, clock, traced)
			if err != nil {
				return nil, err
			}
			cur = d
			return d.c, nil
		},
		dryStop: func(*tart.Cluster) {
			cur.close()
			cur = nil
		},
		warm: func(g *generator) error {
			d := cur
			d.g = g
			d.startCheckpoints()
			// Open the window half a cadence off the checkpoint ticks, so
			// every window holds the same number of checkpoints.
			time.Sleep(openWarmup + ckptEvery/2)
			return nil
		},
		after: func(g *generator) error {
			d := cur
			if err := d.stopCheckpoints(); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
			d.ref = newRefFold(cfg.seed)
			restartFrom := time.Now()
			for i := 0; i < restarts; i++ {
				reopen, resume, recovery, replayed, err := d.restart(rep)
				if err != nil {
					return fmt.Errorf("restart %d: %w", i+1, err)
				}
				dm.reopen = append(dm.reopen, durMs(reopen))
				dm.resume = append(dm.resume, durMs(resume))
				dm.recovery = append(dm.recovery, durMs(recovery))
				dm.replayed = append(dm.replayed, replayed)
			}
			d.verifyDigest(rep, "end")
			if err := d.checkCodec(rep); err != nil {
				return err
			}
			rep.notef("restarts: %d, WAL suffix %d records each; recovery_ms per restart %.2f (median %.3f); replayed %v; restarts took %.2f s",
				restarts, walSuffix, dm.recovery, median(dm.recovery), dm.replayed, time.Since(restartFrom).Seconds())
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	dm.measurement, dm.g = m, cur.g
	dm.bench = dm.g.spans.startedSince(m.win.begin.at)
	for _, us := range dm.g.spans.durations("checkpoint.capture", m.win.begin.at, time.Now()) {
		dm.ckptMs = append(dm.ckptMs, us/1e3)
	}
	rep.notef("open loop: %d arrivals/s per source, offered %.0f msgs/s, delivered %.0f msgs/s, generator lag p50 %.3f ms p99 %.3f ms; checkpoint every %v; traced=%v",
		durableRate, 2.0*durableRate, m.win.throughput(), quantile(m.win.genLag, 0.5), quantile(m.win.genLag, 0.99), ckptEvery, traced)
	return dm, nil
}

func runDurable(cfg runConfig) (*report, error) {
	rep := newReport()
	if !cfg.trace {
		m, err := durableMeasure(cfg, rep, false, durableSetups, cfg.seconds)
		if err != nil {
			return nil, err
		}
		m.e2e(rep)
		rep.notef("metric recovery_ms %.6f ms (median of %d restarts)", median(m.recovery), len(m.recovery))
		return rep, nil
	}
	half := cfg.seconds / 2
	plain, err := durableMeasure(cfg, rep, false, 1, half)
	if err != nil {
		return nil, err
	}
	traced, err := durableMeasure(cfg, rep, true, 1, half)
	if err != nil {
		return nil, err
	}
	traced.layers(rep, plain.measurement)
	v := rep.values
	v["recovery_ms"] = median(plain.recovery)
	v["wal.replayed_records"] = median(traced.replayed)
	v["checkpoint.capture_ms_p50"] = median(traced.ckptMs)
	v["checkpoint.bytes_per_ckpt"] = ratio(float64(traced.delta.m.CheckpointBytes), float64(traced.delta.m.Checkpoints))
	v["checkpoint.fsyncs_per_ckpt"] = ratio(traced.delta.ckptFsyncs, float64(traced.delta.m.Checkpoints))
	v["cluster.reopen_ms"] = median(traced.reopen)
	v["engine.resume_ms"] = median(traced.resume)
	v["engine.stutter_outputs"] = float64(traced.chk.stutterCount())

	appends, err := timeWALAppends(traced.g, rep)
	if err != nil {
		return nil, err
	}
	v["wal.append_us_p50"] = quantile(appends, 0.5)
	v["wal.append_us_p99"] = quantile(appends, 0.99)
	rep.spans = map[string]any{"runtime": traced.spans, "bench": traced.bench}
	return rep, nil
}

// timeWALAppends appends the workload's own inputs, as the generator
// logged them, to a throwaway file WAL and times every AppendInput.
func timeWALAppends(g *generator, rep *report) ([]float64, error) {
	dir, err := os.MkdirTemp(filepath.Join(outDir, "tmp"), "wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	l, err := wal.OpenFileLog(filepath.Join(dir, "wal.log"))
	if err != nil {
		return nil, err
	}
	defer l.Close()
	var us []float64
	for i := 0; i < walAppends; i++ {
		src := 1 + i%2
		r := g.log[src][i/2]
		rec := wal.InputRecord{Source: fmt.Sprintf("in%d", src), Seq: r.Seq, VT: tart.VirtualTime(i + 1), Payload: r}
		t0 := time.Now()
		if err := l.AppendInput(rec); err != nil {
			return nil, fmt.Errorf("wal append: %w", err)
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	rep.notef("wal: %d AppendInput calls on a throwaway file WAL", walAppends)
	return us, nil
}

package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	tart "repro"
)

// generator is the load: two goroutines, one per source (the host has
// two CPUs), each emitting a seeded stream of Reqs. In closed-loop mode a
// source keeps a fixed number of inputs in flight; in open-loop mode it
// emits on a seeded Poisson schedule and is timed from each arrival's due
// instant, so a stall shows as latency of the arrivals queued behind it
// and as generator lag, not as a lower send rate.
type generator struct {
	keys  func(src uint8) (key, val uint64)
	chk   *checker
	rec   *recorder
	spans *spanLog

	// Closed loop: inputs in flight per source. Open loop: arrivals per
	// second per source.
	inFlight int
	rate     float64

	// drop, when set, discards sink outputs before the checker sees them
	// (the checker's self-test injects a lost output with it).
	drop func(tart.Output) bool

	srcs  [3]*tart.Source
	rngs  [3]*rand.Rand
	seq   [3]uint64
	slots [3]chan struct{}
	keep  bool     // record emitted inputs for the reference fold
	log   [3][]Req // emitted inputs per source, when keep

	stop chan struct{}
	wg   sync.WaitGroup

	// The newest output by sink Seq, whether the checker accepted it or
	// not: at a drained point it carries the merger's final state.
	mu      sync.Mutex
	last    Req
	lastSeq uint64
	watch   *watched
}

type watched struct {
	id   inputID
	at   time.Time
	done chan struct{}
}

func newGenerator(seed uint64, chk *checker, rec *recorder) *generator {
	g := &generator{chk: chk, rec: rec}
	for s := 1; s <= 2; s++ {
		g.rngs[s] = rand.New(rand.NewPCG(seed, uint64(s)))
	}
	g.keys = func(src uint8) (uint64, uint64) { return g.rngs[src].Uint64N(1 << 20), 1 }
	return g
}

// attach points the generator at a (re)launched cluster and registers its
// sink.
func (g *generator) attach(c *tart.Cluster) error {
	for s := 1; s <= 2; s++ {
		src, err := c.Source(fmt.Sprintf("in%d", s))
		if err != nil {
			return err
		}
		g.srcs[s] = src
	}
	return c.Sink("out", g.sink)
}

func (g *generator) sink(o tart.Output) {
	now := time.Now()
	if g.drop != nil && g.drop(o) {
		return
	}
	r := o.Payload.(Req)
	g.mu.Lock()
	if o.Seq >= g.lastSeq {
		g.last, g.lastSeq = r, o.Seq
	}
	if w := g.watch; w != nil && w.id == (inputID{r.Src, r.Seq}) {
		w.at = now
		close(w.done)
		g.watch = nil
	}
	g.mu.Unlock()
	if !g.chk.output(o) {
		return
	}
	g.rec.latency(r.Due, now)
	if g.inFlight > 0 {
		select {
		case <-g.slots[r.Src]:
		default:
		}
	}
}

// start launches the two emitting goroutines.
func (g *generator) start() {
	g.stop = make(chan struct{})
	for s := 1; s <= 2; s++ {
		src := uint8(s)
		g.wg.Add(1)
		if g.inFlight > 0 {
			// A semaphore: one token per input in flight.
			g.slots[s] = make(chan struct{}, g.inFlight)
			go g.closedLoop(src)
		} else {
			go g.openLoop(src)
		}
	}
}

// halt stops emitting and waits for both goroutines to return; it does
// nothing when they are not running.
func (g *generator) halt() {
	if g.stop == nil {
		return
	}
	close(g.stop)
	g.wg.Wait()
	g.stop = nil
}

func (g *generator) closedLoop(src uint8) {
	defer g.wg.Done()
	for {
		select {
		case <-g.stop:
			return
		case g.slots[src] <- struct{}{}:
		}
		g.emit(src, time.Now())
	}
}

func (g *generator) openLoop(src uint8) {
	defer g.wg.Done()
	rng := g.rngs[src]
	due := time.Now()
	for {
		due = due.Add(time.Duration(rng.ExpFloat64() / g.rate * 1e9))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		select {
		case <-g.stop:
			return
		default:
		}
		now := time.Now()
		g.rec.lag(now.Sub(due))
		g.emit(src, due)
	}
}

// emit sends the source's next input, due at due.
func (g *generator) emit(src uint8, due time.Time) {
	g.seq[src]++
	key, val := g.keys(src)
	r := Req{Src: src, Seq: g.seq[src], Key: key, Val: val, Due: due.UnixNano()}
	t0 := time.Now()
	_, err := g.srcs[src].Emit(r)
	g.spans.add("engine.emit", t0, time.Now())
	g.chk.emitDone(src, err)
	if err == nil && g.keep {
		g.log[src] = append(g.log[src], r)
	}
}

// emitAndWait emits one input on src while the generator is halted and
// returns when an output carrying it reaches the sink, whatever sink Seq
// it has, or reports a timeout.
func (g *generator) emitAndWait(src uint8, timeout time.Duration) (arrived time.Time, err error) {
	w := &watched{id: inputID{src, g.seq[src] + 1}, done: make(chan struct{})}
	g.mu.Lock()
	g.watch = w
	g.mu.Unlock()
	g.emit(src, time.Now())
	select {
	case <-w.done:
		return w.at, nil
	case <-time.After(timeout):
		g.mu.Lock()
		g.watch = nil
		g.mu.Unlock()
		return time.Time{}, fmt.Errorf("no output for in%d#%d within %v", src, w.id.seq, timeout)
	}
}

// end tells the runtime both streams are over, so outputs still held for
// a silence promise are released without waiting for the source clocks
// to reach their virtual times.
func (g *generator) end() error {
	for s := 1; s <= 2; s++ {
		if err := g.srcs[s].End(); err != nil {
			return err
		}
	}
	return nil
}

// drain waits until every emitted input has reached the sink in some
// output, up to timeout.
func (g *generator) drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for g.chk.pending() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

func (g *generator) lastOutput() Req {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.last
}

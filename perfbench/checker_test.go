package main

import (
	"encoding/json"
	"os"
	"sync/atomic"
	"testing"

	tart "repro"
)

func out(seq uint64, src uint8, srcSeq uint64) tart.Output {
	return tart.Output{Seq: seq, Payload: Req{Src: src, Seq: srcSeq}}
}

// feed emits n inputs alternating between the sources and returns the
// outputs a correct run would deliver for them.
func feed(c *checker, n int) []tart.Output {
	var outs []tart.Output
	var seq [3]uint64
	for i := 0; i < n; i++ {
		src := uint8(1 + i%2)
		seq[src]++
		c.emitDone(src, nil)
		outs = append(outs, out(uint64(i+1), src, seq[src]))
	}
	return outs
}

func TestCheckerCleanStream(t *testing.T) {
	c := newChecker()
	for _, o := range feed(c, 10) {
		c.output(o)
	}
	c.finish()
	if c.failed() != 0 || c.attempted() != 10 {
		t.Fatalf("clean stream: %s", c)
	}
}

func TestCheckerFlagsDroppedOutput(t *testing.T) {
	c := newChecker()
	for i, o := range feed(c, 10) {
		if i == 4 {
			continue
		}
		c.output(o)
	}
	c.finish()
	if c.gaps != 1 || c.lost != 1 || c.failed() != 2 {
		t.Fatalf("dropped output not flagged: %s", c)
	}
}

func TestCheckerStutter(t *testing.T) {
	c := newChecker()
	c.replays = true
	outs := feed(c, 6)
	for _, o := range outs {
		c.output(o)
	}
	c.restarted()
	c.output(outs[4]) // replay of an output the consumer already saw
	c.output(outs[5])
	if c.stutter != 2 || c.failed() != 0 {
		t.Fatalf("replay stutter counted as failure: %s", c)
	}
	c.output(out(6, 2, 9)) // same sink seq, different input
	if c.dups != 1 {
		t.Fatalf("diverging repeat not flagged: %s", c)
	}
	c.output(out(7, 1, 1)) // new sink seq, input already delivered
	if c.dups != 2 {
		t.Fatalf("re-delivered input not flagged: %s", c)
	}
}

func TestCheckerOrderBreak(t *testing.T) {
	c := newChecker()
	c.emitDone(1, nil)
	c.emitDone(1, nil)
	c.output(out(1, 1, 2))
	c.output(out(2, 1, 1))
	c.finish()
	if c.orderBreaks != 1 || c.failed() != 1 {
		t.Fatalf("per-source order break not flagged: %s", c)
	}
}

// TestInjectedDropRaisesErrorRate runs tcp-pipeline for a short window
// with one sink output discarded before the checker sees it: the run must
// report a non-zero error rate, while the same run without the drop
// reports none.
func TestInjectedDropRaisesErrorRate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real pipeline")
	}
	if err := os.MkdirAll(outDir+"/tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(".bench_build")
	failed := func(drop func(tart.Output) bool) (uint64, uint64) {
		rep, err := runTCP(runConfig{seed: 7, seconds: 0.5, drop: drop})
		if err != nil {
			t.Fatal(err)
		}
		var attempted, failed uint64
		for _, c := range rep.checks {
			attempted += c.attempted()
			failed += c.failed()
		}
		return attempted, failed
	}
	if attempted, f := failed(nil); f != 0 || attempted == 0 {
		t.Fatalf("clean run: %d failed of %d attempted", f, attempted)
	}
	var n atomic.Int64
	attempted, f := failed(func(tart.Output) bool { return n.Add(1) == 100 })
	if f == 0 {
		t.Fatalf("injected dropped output: error_rate 0 (%d attempted)", attempted)
	}
	t.Logf("injected dropped output: error_rate %.6f (%d failed of %d attempted)", float64(f)/float64(attempted), f, attempted)
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// this program reports in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, b.Workloads[i].Name, w.name)
		}
	}
}

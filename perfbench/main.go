// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload on the real runtime, checks every output, and
// prints each metric by name with its unit, ending with one JSON line:
//
//	bash perfbench/run.sh --workload fanin-observed --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with every
// tracing layer off. With --trace 1 it makes an untraced and a traced
// measurement in the same process and reports per-layer metrics: the
// traced one times the benchmark's own calls into the program
// (Source.Emit, Cluster.Checkpoint, tart.Reopen, the wal layer, its own
// handlers) and turns on the runtime's span layer for phase attribution;
// the difference between the two is the tracing overhead. Layer counters
// come from what the runtime already exports (Cluster.Metrics,
// Cluster.MetricFamilies); the benchmark adds no instrumentation inside
// the program.
//
// Each run prints the host and the run's identity before its metrics; a
// traced run also writes its spans under .bench_build/perfbench/spans/.
// ledger.py runs every workload over several seeds and summarizes the
// runs' results, with that stamp, into LEDGER.json.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	tart "repro"
)

// outDir holds everything a run leaves behind, relative to the checkout.
const outDir = ".bench_build/perfbench"

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the runtime sees, reported with
// --trace 0 on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_msgs_s", "msgs/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_us_per_msg", "us"},
	{"allocs_per_msg", "count"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced run's metrics, reported with --trace 1 on every
// workload; a layer a workload bypasses reads 0. recovery_ms and
// gen_lag_p99_ms are end-to-end metrics that only some workloads have, so
// they ride here, taken from the traced run's untraced measurement.
var perLayer = []metricDef{
	{"engine.emit_us_p50", "us"},
	{"engine.emit_us_p99", "us"},
	{"sched.queueing_us_p50", "us"},
	{"sched.deliveries_per_msg", "count"},
	{"sched.out_of_rt_order_frac", "ratio"},
	{"app.handler_us_p50", "us"},
	{"silence.pessimism_us_per_msg", "us"},
	{"silence.probes_per_msg", "count"},
	{"silence.promises_per_msg", "count"},
	{"transport.transport_us_p50", "us"},
	{"transport.linger_us_p50", "us"},
	{"transport.bytes_per_msg", "bytes"},
	{"transport.frames_per_writev", "count"},
	{"msg.codec_fallbacks", "count"},
	{"trace.observe_cpu_us_per_msg", "us"},
	{"trace.tracing_overhead_frac", "ratio"},
	{"wal.append_us_p50", "us"},
	{"wal.append_us_p99", "us"},
	{"wal.replayed_records", "count"},
	{"checkpoint.capture_ms_p50", "ms"},
	{"checkpoint.bytes_per_ckpt", "bytes"},
	{"checkpoint.fsyncs_per_ckpt", "count"},
	{"cluster.reopen_ms", "ms"},
	{"engine.resume_ms", "ms"},
	{"engine.stutter_outputs", "count"},
	{"recovery_ms", "ms"},
	{"gen_lag_p99_ms", "ms"},
}

type workload struct {
	name string
	why  string
	// warmup is the rule deciding when the measured window opens.
	warmup string
	run    func(cfg runConfig) (*report, error)
}

var workloads = []workload{
	{
		name:   "fanin-observed",
		why:    "closed-loop Fig. 1 fan-in with the flight recorder on, past 2^16 deliveries per component: per-message CPU of sched, silence, engine and trace; bypasses wal, checkpoint and transport",
		warmup: fmt.Sprintf("measure only after every component has passed 2^16 = %d deliveries", warmDeliveries),
		run:    runFanin,
	},
	{
		name:   "tcp-pipeline",
		why:    "open loop below saturation over loopback TCP between two engines (Fig. 5): pessimism delay and linger set latency; msg codec, transport and cross-engine silence",
		warmup: fmt.Sprintf("measure after %v of open-loop load", openWarmup),
		run:    runTCP,
	},
	{
		name:   "durable-restart",
		why:    "fsync-per-emit open loop over a 100k-key checkpointed table, then repeated cold restarts: wal and checkpoint on both the write and the restore path",
		warmup: fmt.Sprintf("measure after %v of open-loop load; restarts follow the window", openWarmup+ckptEvery/2),
		run:    runDurable,
	},
}

type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	// drop, when set, discards sink outputs before the checker sees them.
	drop func(tart.Output) bool
}

// report is one run's outcome: metric values by name, lines to print
// before them, and the checkers of every measurement the run made.
type report struct {
	values map[string]float64
	notes  []string
	checks []*checker
	// broken lists failed run-level checks that no checker counts, such
	// as a warm-up that was not reached.
	broken []string
	spans  any
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	workloadName := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed for arrivals and keys")
	seconds := flag.Float64("seconds", 10, "length of the measured window, in seconds")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(filepath.Join(outDir, "tmp"), 0o755); err != nil {
		return err
	}
	host := hostRecord()
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%v\n", wl.name, seed, seconds, traced)
	fmt.Printf("why: %s\n", wl.why)
	fmt.Printf("warm-up rule: %s; set-up is excluded from the window and reported as setup_s\n", wl.warmup)
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s tree=%s\n",
		host.CPU, host.NProc, host.GOMAXPROCS, host.Go, host.Commit, host.Tree)
	fmt.Printf("command: %s\n", host.Command)

	rep, err := wl.run(runConfig{seed: seed, seconds: seconds, trace: traced})
	if err != nil {
		return err
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Printf("metric %-30s %14.6f %s\n", d.name, v, d.unit)
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	var attempted, failed uint64
	for i, c := range rep.checks {
		attempted += c.attempted()
		failed += c.failed()
		fmt.Printf("check %d: %s\n", i+1, c)
	}
	for _, b := range rep.broken {
		fmt.Printf("check failed: %s\n", b)
	}
	if attempted == 0 {
		return errors.New("no operation was attempted")
	}
	fmt.Printf("error_rate %.6f (%d failed of %d attempted)\n", float64(failed)/float64(attempted), failed, attempted)
	correct := failed == 0 && len(rep.broken) == 0
	if traced && rep.spans != nil {
		if err := writeJSON(filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.json", wl.name, seed)), rep.spans); err != nil {
			return err
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// host is the identity printed with every run.
type host struct {
	CPU        string
	NProc      int
	GOMAXPROCS int
	Go         string
	Commit     string
	Tree       string
	Command    string
}

func hostRecord() host {
	h := host{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     gitCommit(),
		Tree:       treeDigest(),
		Command:    os.Getenv("PERFBENCH_COMMAND"),
	}
	if h.Command == "" {
		h.Command = strings.Join(os.Args, " ")
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// gitCommit reads HEAD from .git without running git; a checkout that is
// not a repository has no commit, and the tree digest identifies it.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	return "unknown"
}

// treeDigest hashes the checkout's Go sources, module files, scripts and
// BENCHMARK.json, so runs of the same code carry the same identity with
// or without git.
func treeDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (p == ".bench_build" || p == ".git") {
			return filepath.SkipDir
		}
		switch filepath.Ext(p) {
		case ".go", ".mod", ".sh", ".py", ".json":
			if !d.IsDir() && filepath.Base(p) != "LEDGER.json" {
				files = append(files, p)
			}
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", p)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

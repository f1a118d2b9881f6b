package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// procSample is what the process has consumed up to one instant, and the
// host's CPU ticks so far: all of them, and those stolen by the
// hypervisor for other guests.
type procSample struct {
	at                   time.Time
	cpu                  time.Duration // user + sys
	mallocs              uint64
	outputs              uint64
	hostTicks, hostSteal uint64
}

func sampleProc(outputs uint64) procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSample{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		outputs: outputs,
	}
	s.hostTicks, s.hostSteal = hostCPUTicks()
	return s
}

// hostCPUTicks reads the aggregate "cpu" line of /proc/stat: the total of
// its tick counters and the steal counter (the eighth). Both are 0 where
// the file is unavailable.
func hostCPUTicks() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user..steal; guest time is already inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// stealFrac is the share of the host's CPU time stolen by other guests
// during the window: a record of how noisy the host was, not a metric.
func (w window) stealFrac() float64 {
	return ratio(float64(w.end.hostSteal-w.begin.hostSteal), float64(w.end.hostTicks-w.begin.hostTicks))
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// recorder collects the end-to-end samples of one measured window:
// latency per new output and, for open-loop workloads, generator lag per
// emit. Samples are taken only while the window is open.
type recorder struct {
	open    atomic.Bool
	outputs atomic.Uint64 // new outputs, window or not

	mu     sync.Mutex
	lat    []float64 // ms
	genLag []float64 // ms
}

func (r *recorder) latency(due int64, now time.Time) {
	r.outputs.Add(1)
	if !r.open.Load() {
		return
	}
	ms := float64(now.UnixNano()-due) / 1e6
	r.mu.Lock()
	r.lat = append(r.lat, ms)
	r.mu.Unlock()
}

func (r *recorder) lag(d time.Duration) {
	if !r.open.Load() {
		return
	}
	r.mu.Lock()
	r.genLag = append(r.genLag, float64(d.Nanoseconds())/1e6)
	r.mu.Unlock()
}

// window is one measured interval.
type window struct {
	begin, end procSample
	lat        []float64
	genLag     []float64
	subs       []window // the back-to-back sub-windows it was measured as
}

func (r *recorder) openWindow() procSample {
	s := sampleProc(r.outputs.Load())
	r.open.Store(true)
	return s
}

// cut ends the sub-window that began at begin. The next one begins at
// the returned window's end, so no output falls between the two.
func (r *recorder) cut(begin procSample) window {
	end := sampleProc(r.outputs.Load())
	r.mu.Lock()
	defer r.mu.Unlock()
	w := window{begin: begin, end: end, lat: r.lat, genLag: r.genLag}
	r.lat, r.genLag = nil, nil
	return w
}

func (r *recorder) closeWindow() {
	r.open.Store(false)
	r.mu.Lock()
	r.lat, r.genLag = nil, nil
	r.mu.Unlock()
}

func (w window) msgs() float64    { return float64(w.end.outputs - w.begin.outputs) }
func (w window) seconds() float64 { return w.end.at.Sub(w.begin.at).Seconds() }

func (w window) throughput() float64 { return w.msgs() / w.seconds() }

func (w window) cpuUsPerMsg() float64 {
	return float64((w.end.cpu - w.begin.cpu).Microseconds()) / w.msgs()
}

func (w window) allocsPerMsg() float64 {
	return float64(w.end.mallocs-w.begin.mallocs) / w.msgs()
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place). It is NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durMs converts a duration to milliseconds.
func durMs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// benchSpan is one span the benchmark records around a call into the
// program (Source.Emit, Cluster.Checkpoint, tart.Reopen, wal appends).
type benchSpan struct {
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
}

// spanLog keeps the traced run's benchmark spans in memory; they are
// written out when the run ends. A nil spanLog records nothing, which is
// how untraced runs skip it.
type spanLog struct {
	mu    sync.Mutex
	spans []benchSpan
}

func (l *spanLog) add(name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, benchSpan{Name: name, Start: start, End: end})
	l.mu.Unlock()
}

// startedSince returns the spans that started at or after from.
func (l *spanLog) startedSince(from time.Time) []benchSpan {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []benchSpan
	for _, s := range l.spans {
		if !s.Start.Before(from) {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations in microseconds of the named spans that
// started inside [from, to].
func (l *spanLog) durations(name string, from, to time.Time) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name && !s.Start.Before(from) && !s.Start.After(to) {
			out = append(out, float64(s.End.Sub(s.Start).Nanoseconds())/1e3)
		}
	}
	return out
}

// measureWindow keeps the window open for seconds while the load runs,
// as back-to-back sub-windows of about sub each; the end-to-end metrics
// are taken over the pool of the quietest of them (see quiet).
func measureWindow(rec *recorder, clock *handlerClock, seconds float64, sub time.Duration) window {
	n := max(1, int(math.Round(seconds/sub.Seconds())))
	sub = time.Duration(seconds / float64(n) * float64(time.Second))
	if clock != nil {
		clock.on.Store(true)
		defer clock.on.Store(false)
	}
	var whole window
	whole.begin = rec.openWindow()
	begin := whole.begin
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(whole.begin.at.Add(time.Duration(i) * sub)))
		w := rec.cut(begin)
		begin = w.end
		whole.end = w.end
		whole.lat = append(whole.lat, w.lat...)
		whole.genLag = append(whole.genLag, w.genLag...)
		whole.subs = append(whole.subs, w)
	}
	rec.closeWindow()
	return whole
}

const (
	// subWindow is the length of one sub-window where the workload does
	// not set its own: short, so that a steal episode of a few hundred
	// milliseconds costs only the sub-windows it touches.
	subWindow = 100 * time.Millisecond
	// quietSteal is the share of stolen host CPU time below which a
	// sub-window counts as quiet: no 10 ms tick stolen in a 100 ms
	// sub-window, at most one in a 1 s sub-window of two CPUs.
	quietSteal = 0.01
)

// pool is several sub-windows taken together: their time, outputs, CPU
// and allocations summed, and their latency samples pooled.
type pool struct {
	n                    int // sub-windows
	seconds, msgs        float64
	cpu                  time.Duration
	mallocs              uint64
	lat                  []float64
	hostTicks, hostSteal uint64
}

func (p pool) throughput() float64   { return p.msgs / p.seconds }
func (p pool) cpuUsPerMsg() float64  { return float64(p.cpu.Microseconds()) / p.msgs }
func (p pool) allocsPerMsg() float64 { return float64(p.mallocs) / p.msgs }
func (p pool) stealFrac() float64    { return ratio(float64(p.hostSteal), float64(p.hostTicks)) }

// quiet pools the sub-windows in which the hypervisor stole less than
// quietSteal of this host's CPU time, and at least the quietest quarter of
// them. On a shared host a second with even 2% stolen time can double
// that second's tail latency; other guests now move the result only when
// they are busy for more than three quarters of the window. Every latency
// sample of the pooled sub-windows counts, so a stall inside them reaches
// the percentiles.
func (w window) quiet() pool {
	subs := append([]window(nil), w.subs...)
	sort.SliceStable(subs, func(i, j int) bool { return subs[i].stealFrac() < subs[j].stealFrac() })
	n := max(1, len(subs)/4)
	for n < len(subs) && subs[n].stealFrac() < quietSteal {
		n++
	}
	var p pool
	for _, s := range subs[:n] {
		p.n++
		p.seconds += s.seconds()
		p.msgs += s.msgs()
		p.cpu += s.end.cpu - s.begin.cpu
		p.mallocs += s.end.mallocs - s.begin.mallocs
		p.lat = append(p.lat, s.lat...)
		p.hostTicks += s.end.hostTicks - s.begin.hostTicks
		p.hostSteal += s.end.hostSteal - s.begin.hostSteal
	}
	return p
}

// Command perfbench is the repository benchmark: it runs one named
// discovery workload against an in-process Argus fleet, checks every
// discovery against the ground truth, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer ledger) with the result JSON as the
// last line of standard output. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"argus/internal/obs"
)

// workload is one traffic mix. The shapes are frozen: every later change
// is measured against them.
type workload struct {
	name                                   string
	cells, subjectsPerCell, objectsPerCell int
	rate                                   float64 // offered sessions/s; 0 = closed loop
	verifyCache                            bool
	churn                                  bool          // backend over HTTP, revocations and adds
	churnEvery                             time.Duration // one write every period, alternating
}

var workloads = []*workload{
	{name: "warm-open", cells: 24, subjectsPerCell: 16, objectsPerCell: 2, rate: 1000, verifyCache: true},
	{name: "saturate", cells: 32, subjectsPerCell: 4, objectsPerCell: 8, verifyCache: true},
	{name: "cold-contact", cells: 24, subjectsPerCell: 16, objectsPerCell: 2, rate: 500},
	{name: "churn", cells: 32, subjectsPerCell: 8, objectsPerCell: 2, rate: 1000, verifyCache: true,
		churn: true, churnEvery: 250 * time.Millisecond},
}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: warm-open, saturate, cold-contact or churn")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory for the churn backend's WAL")
	outdir := flag.String("out", ".bench_build/traces", "directory for traced runs' span files")
	flag.Parse()
	w := lookup(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (warm-open|saturate|cold-contact|churn), -seconds ≥ 1, -trace 0|1")
		os.Exit(2)
	}
	var (
		res *result
		err error
	)
	window := time.Duration(*seconds) * time.Second
	if *trace == 0 {
		res, err = runEndToEnd(w, *seed, window, *workdir)
	} else {
		res, err = runTraced(w, *seed, window, *workdir, *outdir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtStats is a runtime/metrics reading.
type rtStats struct {
	heapLive, allocs uint64
	gcCPU            float64
	goroutines       uint64
	sched            *metrics.Float64Histogram
	pauseNs          uint64
}

func readRuntime(withPause bool) rtStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	r := rtStats{
		heapLive: s[0].Value.Uint64(), allocs: s[1].Value.Uint64(),
		gcCPU: s[2].Value.Float64(), goroutines: s[3].Value.Uint64(),
		sched: s[4].Value.Float64Histogram(),
	}
	if withPause {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.pauseNs = ms.PauseTotalNs
	}
	return r
}

// histQuantile returns the q-quantile of the difference of two cumulative
// runtime histograms, as the upper bound of the bucket it falls in.
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	d := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		d[i] = after.Counts[i] - before.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(q*float64(total) + 0.5)
	var cum uint64
	for i, c := range d {
		cum += c
		if cum >= want {
			return after.Buckets[i+1]
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}

// windowStats is what one measured window produced beyond the ledger.
type windowStats struct {
	cpu        time.Duration
	sessions   int64
	heapPeak   uint64
	openPeak   int
	rt0, rt1   rtStats
	snap0      *obs.Snapshot
	snap1      *obs.Snapshot
	wal0, wal1 int64
	goroutines uint64
}

// measure runs one timed window on a set-up fleet: the open-loop schedule
// or the closed loop, plus the churn stream, then drains every round. An
// open loop's CPU and counters run until the drain ends, so every session
// armed in the window is paid for; a closed loop is measured in steady
// state, from the window's start to its end, against every session that
// completed in between.
func measure(w *workload, f *fleet, l *ledger, seed uint64, window time.Duration) (*windowStats, error) {
	runtime.GC()
	ws := &windowStats{}
	var sched []arrival
	if !l.closed {
		sched = poissonSchedule(seed, w.rate/float64(w.objectsPerCell), window)
	}
	base := l.now() + 20*time.Millisecond
	if l.closed {
		base += closedSettle
	}
	l.mu.Lock()
	l.begin, l.window = base, base+window
	l.mu.Unlock()

	stopSampler := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
			}
			metrics.Read(s)
			ws.heapPeak = max(ws.heapPeak, s[0].Value.Uint64())
			if f.tr != nil {
				ws.openPeak = max(ws.openPeak, f.pendingSessions())
			}
		}
	}()
	if l.closed {
		l.rampClosed(seed, base)
	}

	var cpu0 time.Duration
	begin := func() {
		ws.snap0, ws.rt0 = f.reg.Snapshot(), readRuntime(true)
		if f.env != nil {
			ws.wal0 = f.env.walAppends()
		}
		if f.tr != nil {
			f.tr.on.Store(true)
		}
		cpu0 = cpuTime()
	}
	end := func() {
		ws.cpu = cpuTime() - cpu0
		if f.tr != nil {
			f.tr.on.Store(false)
		}
		ws.rt1, ws.snap1 = readRuntime(true), f.reg.Snapshot()
		if f.env != nil {
			ws.wal1 = f.env.walAppends()
		}
	}
	begin()
	churnErr := make(chan error, 1)
	if w.churn {
		go func() { churnErr <- l.churnLoop(context.Background(), seed, base, window, w.churnEvery) }()
	} else {
		churnErr <- nil
	}
	if !l.closed {
		l.openLoop(sched, base)
	}
	if wait := l.window - l.now(); wait > 0 {
		time.Sleep(wait)
	}
	ws.goroutines = readRuntime(false).goroutines
	if l.closed {
		l.stop.Store(true)
		end()
	}
	err := <-churnErr
	l.drain()
	if !l.closed {
		end()
	}
	close(stopSampler)
	<-sampled
	l.mu.Lock()
	ws.sessions = l.completed
	if l.closed {
		ws.sessions = l.doneInWindow
	}
	l.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if ws.sessions == 0 {
		return nil, fmt.Errorf("no session completed in the window")
	}
	return ws, nil
}

// setups is how many times an untraced run sets up its fleet; setup_s is
// the median of their times.
const setups = 3

// runEndToEnd sets up the fleet several times, measures one untraced
// window on the last fleet, and reports every end-to-end metric.
func runEndToEnd(w *workload, seed uint64, window time.Duration, workdir string) (*result, error) {
	var (
		f      *fleet
		l      *ledger
		setupS []float64
	)
	for i := 0; i < setups; i++ {
		if f != nil {
			f.close()
		}
		var err error
		if f, l, err = setup(w, workdir, nil); err != nil {
			return nil, err
		}
		setupS = append(setupS, f.cost.total.Seconds())
	}
	defer f.close()
	ws, err := measure(w, f, l, seed, window)
	if err != nil {
		return nil, err
	}
	return report(w, l, ws, window, median(setupS))
}

// report turns one untraced window into the end-to-end result and prints
// the human-readable table to stdout.
func report(w *workload, l *ledger, ws *windowStats, window time.Duration, setupS float64) (*result, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var failed int64
	for _, v := range l.failures {
		failed += v
	}
	res := &result{Correct: failed == 0, Attempted: l.armed, Failed: failed, Metrics: map[string]metric{}}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no session armed")
	}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	completed := l.completed
	if l.closed {
		completed = l.doneInWindow
	}
	put("setup_s", setupS, "s")
	put("sessions_per_s", float64(completed)/window.Seconds(), "1/s")
	var byLevel [4][]float64
	all := make([]float64, len(l.samples))
	for i, s := range l.samples {
		all[i] = s.ms
		byLevel[s.lv] = append(byLevel[s.lv], s.ms)
	}
	names := [4]string{1: "l1_p50_ms", 2: "l2_p50_ms", 3: "l3_p50_ms"}
	for lv := 1; lv <= 3; lv++ {
		name := names[lv]
		p50, err := tail(sortedCopy(byLevel[lv]), 0.5)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		put(name, p50, "ms")
	}
	put("cpu_us_per_session", float64(ws.cpu)/float64(time.Microsecond)/float64(ws.sessions), "us")
	put("heap_peak_mb", float64(ws.heapPeak)/(1<<20), "MB")

	fmt.Printf("workload %s: %s, GOMAXPROCS=%d, NumCPU=%d\n", w.name, shape(w), runtime.GOMAXPROCS(0), runtime.NumCPU())
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-20s %12.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	all = sortedCopy(all)
	hq := highestSupported(len(all))
	fmt.Printf("  samples: L1 %d, L2 %d, L3 %d, pooled %d\n", len(byLevel[1]), len(byLevel[2]), len(byLevel[3]), len(all))
	if p99, err := tail(all, 0.99); err == nil {
		fmt.Printf("  p99_ms %.4f ms; highest supported percentile p%g = %.4f ms (not bounded: see README)\n", p99, 100*hq, quantile(all, hq))
	}
	fmt.Printf("  failed_frac %.6f (%d of %d sessions armed) %v\n", ratio(float64(failed), float64(l.armed)), failed, l.armed, l.failures)
	if !l.closed {
		lags := sortedCopy(l.lags)
		fmt.Printf("  generator: %d arrivals, %d skipped, lag p99 %.3f ms\n", l.arrivals, l.skipped, quantile(lags, 0.99))
	}
	if w.churn {
		rv := sortedCopy(l.churn.revokeMs)
		fmt.Printf("  churn: %d revocations, %d adds; revoke_p50_ms %.3f, revoke_p99_ms %.3f (of %d)\n",
			l.churn.revokes, l.churn.adds, quantile(rv, 0.5), quantile(rv, 0.99), len(rv))
	}
	return res, nil
}

func shape(w *workload) string {
	loop := fmt.Sprintf("open loop %.0f sessions/s", w.rate)
	if w.rate == 0 {
		loop = "closed loop"
	}
	cache := "warm verify caches"
	if !w.verifyCache {
		cache = "no verify cache"
	}
	s := fmt.Sprintf("%d cells × %d subjects × %d objects, %s, %s", w.cells, w.subjectsPerCell, w.objectsPerCell, loop, cache)
	if w.churn {
		s += fmt.Sprintf(", backend over loopback HTTP, one write per %v", w.churnEvery)
	}
	return s
}

// runTraced measures an untraced half window for the CPU baseline, then a
// traced half window on a fresh fleet, and reports the per-layer metrics.
func runTraced(w *workload, seed uint64, window time.Duration, workdir, outdir string) (*result, error) {
	half := window / 2
	f, l, err := setup(w, workdir, nil)
	if err != nil {
		return nil, err
	}
	base, err := measure(w, f, l, seed, half)
	f.close()
	if err != nil {
		return nil, err
	}
	untracedCPU := float64(base.cpu) / float64(time.Microsecond) / float64(base.sessions)

	tr := newTracer()
	f, l, err = setup(w, workdir, tr)
	if err != nil {
		return nil, err
	}
	ws, err := measure(w, f, l, seed, half)
	// Closing the fleet waits for every event loop to exit, so the
	// endpoints' unlocked span buffers are safe to read from here on.
	f.close()
	if err != nil {
		return nil, err
	}
	units, err := calibrate(f.sample, tr.captured)
	if err != nil {
		return nil, err
	}
	spans := tr.collect()
	sessions, other := nest(spans)
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outdir, fmt.Sprintf("trace-%s-seed%d.jsonl.gz", w.name, seed))
	if err := writeTrace(path, sessions, other); err != nil {
		return nil, err
	}
	return layers(w, f, l, ws, tr, units, untracedCPU, sessions, spans, path)
}

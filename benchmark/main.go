// Command benchmark is the repository's measurement spine: it starts
// real qbs-server processes on loopback ports, drives them from one
// load generator with one request in flight, checks every kind of answer
// against from-scratch evaluation, and prints client-observed latency,
// throughput and a per-layer budget. See README.md in this directory
// for the workloads, every metric's definition and the predictions that
// tie layers to end-to-end numbers.
//
//	go run ./benchmark                                   # five workloads, both runs each
//	go run ./benchmark -workload yt-read -seed 3 -trace 0
//	go run ./benchmark -repeat 10                        # spread of every end-to-end metric
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"

	"qbs/internal/server"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // sample count behind a percentile; 0 when not a sample statistic
}

// metrics keeps reported numbers in the order they were set.
type metrics struct {
	names  []string
	byName map[string]metric
}

func newMetrics() *metrics { return &metrics{byName: map[string]metric{}} }

func (m *metrics) set(name, unit string, value float64) { m.setN(name, unit, value, 0) }

func (m *metrics) setN(name, unit string, value float64, n int) {
	if _, dup := m.byName[name]; !dup {
		m.names = append(m.names, name)
	}
	m.byName[name] = metric{Value: value, Unit: unit, n: n}
}

func (m *metrics) print(kind string) {
	for _, name := range m.names {
		v := m.byName[name]
		line := fmt.Sprintf("  %-9s %-34s %16.4f %-6s", kind, name, v.Value, v.Unit)
		if v.n > 0 {
			line += fmt.Sprintf(" n=%d", v.n)
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
}

// result is one run of one workload.
type result struct {
	endToEnd *metrics // the metrics BENCHMARK.json lists under end_to_end
	perLayer *metrics // the metrics BENCHMARK.json lists under per_layer (traced runs)
	extra    *metrics // client-observed numbers only some workloads have

	attempted, failed int
	firstErr          string
}

// setupRepeats is how many times a run sets its topology up; setup_s is
// the median, the last topology serves the run.
const setupRepeats = 3

// runWorkload makes one run of w. refURL is the reference server the
// latencies are divided by.
func runWorkload(ctx context.Context, w workload, refURL string, seed int64, seconds float64, trace bool, traceOut string) (*result, error) {
	if runtime.NumCPU() < 2 {
		return nil, errors.New("num_cpu < 2: qps and the open-loop metrics would measure the generator starving the server; refusing to report them")
	}
	bin, buildTime, err := buildServer(ctx)
	if err != nil {
		return nil, err
	}
	lg, err := generateLocal(w)
	if err != nil {
		return nil, err
	}

	var tp *topology
	var setups []int64
	repeats := setupRepeats
	if trace {
		repeats = 1 // setup_s is not a metric of the traced run
	}
	for range repeats {
		if tp != nil {
			tp.stop()
		}
		var took time.Duration
		if tp, took, err = setUp(ctx, bin, w); err != nil {
			return nil, err
		}
		setups = append(setups, int64(took))
	}
	defer tp.stop()

	var stats server.StatsResponse
	c := dial(tp.readURL)
	err = getJSON(c, "/stats", &stats)
	c.close()
	if err != nil {
		return nil, err
	}
	if stats.Vertices != lg.n || stats.Edges != lg.numEdges() {
		return nil, fmt.Errorf("server graph |V|=%d |E|=%d differs from the local copy |V|=%d |E|=%d",
			stats.Vertices, stats.Edges, lg.n, lg.numEdges())
	}
	fmt.Printf("workload %s: %s %s x%g |V|=%d |E|=%d seed=%d seconds=%g open_rate=%g/s write_rate=%g/s (WAL fsync on every write) build_s=%.3f\n",
		w.name, map[bool]string{false: "undirected", true: "directed"}[w.directed], w.dataset, w.scale,
		lg.n, lg.numEdges(), seed, seconds, w.openRate, w.writeRate, buildTime.Seconds())

	failovers0 := routerFailovers(w, tp)
	before, err := tp.stat()
	if err != nil {
		return nil, err
	}
	self0, wall0 := selfCPU(), time.Now()
	live := runLive(w, tp, refURL, lg, seed, seconds, trace)
	self1, wall := selfCPU(), time.Since(wall0)
	after, err := tp.stat()
	if err != nil {
		return nil, err
	}

	r := &result{endToEnd: newMetrics(), perLayer: newMetrics(), extra: newMetrics()}
	closed, open := &live.closed, &live.open
	r.attempted = closed.attempted + open.attempted
	r.failed = closed.failed + open.failed
	r.firstErr = cmp.Or(closed.firstErr, open.firstErr)

	// Correctness, outside the timed phases: replies against from-scratch
	// evaluation on the local copy, after the acknowledged writes.
	final, err := lg.withWrites(live.acked)
	if err != nil {
		return nil, err
	}
	if w.routed {
		if err := awaitConvergence(tp); err != nil {
			r.failed++
			r.firstErr = cmp.Or(r.firstErr, err.Error())
		}
		r.attempted++
	}
	checked, wrong, why := checkOracle(w, tp.readURL, final, seed, live.finalEpoch)
	r.attempted += checked
	r.failed += wrong
	r.firstErr = cmp.Or(r.firstErr, why)

	e := r.endToEnd
	slices.Sort(setups)
	e.setN("setup_s", "s", time.Duration(setups[len(setups)/2]).Seconds(), len(setups))
	// Closed loop, bounded: each latency as a multiple of the reference
	// request's in the same second (see refHandler).
	nw := closedWindows(live.closedLen)
	e.setN("spg_p50_rel", "ratio", relative(closed.spg, closed.ref, live.closedLen, nw, 0.5), len(closed.spg))
	e.setN("spg_p95_rel", "ratio", relative(closed.spg, closed.ref, live.closedLen, nw, 0.95), len(closed.spg))
	e.setN("distance_p50_rel", "ratio", relative(closed.distance, closed.ref, live.closedLen, nw, 0.5), len(closed.distance))
	e.set("server_rss_mb", "MB", float64(after.peakRSS)/(1<<20))
	e.set("index_bytes_per_vertex", "B", float64(stats.SizeLabels+stats.SizeDelta)/float64(stats.Vertices))

	if w.writeRate > 0 {
		writes := append(closed.write, open.write...)
		r.extra.setN("write_p50_us", "us", us(percentile(writes, 0.5)), len(writes))
		r.extra.setN("write_p99_us", "us", us(percentile(writes, 0.99)), len(writes))
	}
	if w.routed {
		ryw := append(closed.ryw, open.ryw...)
		visible := append(closed.visible, open.visible...)
		r.extra.setN("ryw_p50_us", "us", us(percentile(ryw, 0.5)), len(ryw))
		r.extra.setN("replica.visible_p50_ms", "ms", percentile(visible, 0.5)/1e6, len(visible))
		r.extra.set("replica.failover_frac", "ratio", (routerFailovers(w, tp)-failovers0)/float64(live.minEpochReads))
		r.extra.set("replica.lag_epochs_max", "count", float64(max(closed.lagEpochsMax, open.lagEpochsMax)))
	}

	// The same in microseconds, and the throughput of one request in
	// flight, follow the host's mode and carry no bound (see README); nor
	// do the two tails. Only a traced run has an open phase.
	ops := live.warm + closed.attempted + open.attempted
	spg, distance, ref := latencies(closed.spg), latencies(closed.distance), latencies(closed.ref)
	l := r.perLayer
	l.setN("qps", "1/s", float64(len(spg)+len(distance))/time.Duration(sum(spg)+sum(distance)).Seconds(), len(spg)+len(distance))
	l.setN("spg_p50_us", "us", us(percentile(spg, 0.5)), len(spg))
	l.setN("spg_p95_us", "us", us(percentile(spg, 0.95)), len(spg))
	l.setN("spg_p99_us", "us", us(percentile(spg, 0.99)), len(spg))
	l.setN("distance_p50_us", "us", us(percentile(distance, 0.5)), len(distance))
	l.setN("ref_p50_us", "us", us(percentile(ref, 0.5)), len(ref))
	l.setN("ref_p95_us", "us", us(percentile(ref, 0.95)), len(ref))
	if live.openLen > 0 {
		late := us(percentile(open.late, 0.99))
		openP99 := us(windowed(open.spg, live.openLen, openWindows, 0.99))
		l.setN("open_spg_p99_us", "us", openP99, len(open.spg))
		l.setN("loadgen.late_p99_us", "us", late, len(open.late))
		if late > openP99/10 {
			fmt.Printf("  INVALID   the open-loop generator ran %.1f us late at p99, over a tenth of open_spg_p99_us\n", late)
		}
	}
	l.set("loadgen.attempted", "count", float64(ops))
	l.set("loadgen.cpu_frac", "ratio", (self1-self0).Seconds()/(wall.Seconds()*float64(runtime.NumCPU())))
	l.set("proc.server_cpu_us_per_op", "us", float64((after.cpu-before.cpu).Microseconds())/float64(ops))
	l.set("proc.server_threads", "count", float64(after.threads))

	if trace {
		if err := runLayers(w, tp, final, seed, l, traceOut); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// selfCPU is the user+system time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// routerFailovers reads the router's failover counter (0 when the
// workload has no router).
func routerFailovers(w workload, tp *topology) float64 {
	if !w.routed {
		return 0
	}
	c := dial(tp.readURL)
	defer c.close()
	_, body, err := c.do("GET", "/metrics?format=prometheus", nil)
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "qbs_router_failovers_total "); ok {
			var v float64
			if _, err := fmt.Sscan(rest, &v); err == nil {
				return v
			}
		}
	}
	return math.NaN()
}

// awaitConvergence waits for the replica to reach the primary's epoch
// once writes have stopped.
func awaitConvergence(tp *topology) error {
	primary, replica := dial(tp.primaryURL), dial(tp.backendURL)
	defer primary.close()
	defer replica.close()
	want, err := fetchEpoch(primary)
	if err != nil {
		return err
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		got, err := fetchEpoch(replica)
		if err != nil {
			return err
		}
		if got >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica at epoch %d never reached the primary's %d", got, want)
		}
	}
}

// report prints one run and, in the driver's form, its last line.
func (r *result) report(trace, jsonLine bool) {
	r.endToEnd.print("e2e")
	r.extra.print("extra")
	r.perLayer.print("layer")
	picked := r.endToEnd
	if trace {
		picked = r.perLayer
	}
	fmt.Printf("  %-9s attempted=%d failed=%d failed_frac=%g\n", "check", r.attempted, r.failed,
		float64(r.failed)/float64(r.attempted))
	if r.firstErr != "" {
		fmt.Printf("  %-9s %s\n", "error", r.firstErr)
	}
	if !jsonLine {
		return
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, picked.byName})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	var (
		name     = flag.String("workload", "", "run one workload (default: all five)")
		seed     = flag.Int64("seed", 1, "sampling seed for pairs and mutations")
		seconds  = flag.Float64("seconds", 30, "length of the timed phases of one run")
		trace    = flag.Int("trace", -1, "0: end-to-end run; 1: traced run with per-layer metrics; -1: one of each")
		traceOut = flag.String("trace-out", "", "file for the traced run's spans (default "+workDir+"/trace-<workload>.json)")
		repeat   = flag.Int("repeat", 1, "run the selection this many times on consecutive seeds and print each end-to-end metric's spread")
		spin     = flag.Bool("spin", false, "internal: run as the child that keeps the CPUs from idling")
		refMode  = flag.Bool("ref", false, "internal: run as the reference server on -addr")
		addr     = flag.String("addr", "", "internal: listen address of the reference server")
	)
	flag.Parse()
	switch {
	case *spin:
		spinMain()
		return
	case *refMode:
		refMain(*addr)
		return
	}

	// SIGINT/SIGTERM: stop the build and every server, remove what the
	// run left behind, and exit.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		cancel()
		stopAll()
		for _, pattern := range []string{"data-*", "probe-*"} {
			dirs, _ := filepath.Glob(filepath.Join(workDir, pattern))
			for _, d := range dirs {
				_ = os.RemoveAll(d)
			}
		}
		os.Exit(130)
	}()

	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fatal(err)
		}
		selected = []workload{w}
	}
	modes := []bool{false, true}
	if *trace >= 0 {
		modes = []bool{*trace == 1}
	}
	// The driver's form: one workload, one mode, one run, JSON last.
	jsonLine := len(selected) == 1 && len(modes) == 1 && *repeat == 1

	fmt.Printf("host: num_cpu=%d gomaxprocs=%d go=%s commit=%s connections=1 read + 1 paced write request_timeout=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), requestTimeout)
	// Keep the cores from idling for as long as anything is measured; a
	// host that refuses SCHED_IDLE gets no spinner and says so.
	if _, err := startSpinner(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: no spinner:", err)
	}
	defer stopAll()
	ref, err := startRef(ctx)
	if err != nil {
		fatal(err)
	}
	failed := false
	runs := map[string][]*result{} // end-to-end runs per workload, for -repeat
	for rep := range *repeat {
		for _, w := range selected {
			for _, traced := range modes {
				r, err := runWorkload(ctx, w, ref.url, *seed+int64(rep), *seconds, traced, *traceOut)
				if err != nil {
					fatal(fmt.Errorf("%s: %w", w.name, err))
				}
				r.report(traced, jsonLine)
				failed = failed || r.failed > 0
				if !traced {
					runs[w.name] = append(runs[w.name], r)
				}
			}
		}
	}
	if *repeat > 1 {
		if err := printSpreads(selected, runs); err != nil {
			fatal(err)
		}
	}
	if failed {
		stopAll()
		os.Exit(1)
	}
}

// fatal stops every child and exits 1.
func fatal(err error) {
	stopAll()
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// quartileSpread is (Q3 − Q1) / median with the quartiles of Python's
// statistics.quantiles(values, n=4) — the statistic the acceptance
// check of BENCHMARK.json uses.
func quartileSpread(values []float64) (median, spread float64) {
	xs := slices.Clone(values)
	slices.Sort(xs)
	quantile := func(i int) float64 { // exclusive method, i of 4
		m := len(xs) + 1
		j := min(max(i*m/4, 1), len(xs)-1)
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	median = quantile(2)
	return median, (quantile(3) - quantile(1)) / median
}

// printSpreads compares the repeated runs: per workload and end-to-end
// metric, every value, the median, the quartile spread and the bound
// BENCHMARK.json gives the metric.
func printSpreads(selected []workload, runs map[string][]*result) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	fmt.Println("repeatability: spread = (Q3-Q1)/median over the runs; FLAG = spread above the metric's bound")
	for _, w := range selected {
		for _, m := range spec.EndToEnd {
			var values []float64
			for _, r := range runs[w.name] {
				values = append(values, r.endToEnd.byName[m.Name].Value)
			}
			median, spread := quartileSpread(values)
			flag := ""
			if spread > m.Bound {
				flag = " FLAG"
			}
			fmt.Printf("  %-12s %-24s median=%-12.4f spread=%.4f bound=%.2f%s values=%.4f\n",
				w.name, m.Name, median, spread, m.Bound, flag, values)
		}
	}
	return nil
}

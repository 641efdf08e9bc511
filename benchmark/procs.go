package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// workDir holds everything the benchmark writes: the server binary,
// per-run data directories and the span dump. It is relative to the
// working directory (the root of the checkout) and named in .gitignore.
const workDir = ".bench_build"

// buildServer compiles cmd/qbs-server into workDir. go build relinks
// only when the sources changed, so every run after the first pays a
// staleness check; the time is reported beside setup_s, never inside it.
func buildServer(ctx context.Context) (string, time.Duration, error) {
	start := time.Now()
	bin := filepath.Join(workDir, "qbs-server")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/qbs-server")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/qbs-server: %w\n%s", err, out)
	}
	abs, err := filepath.Abs(bin)
	return abs, time.Since(start), err
}

// The host is a small virtual machine on a shared box. A virtual CPU
// that goes idle is taken off its physical core, and how long the host
// takes to put it back when a reply arrives depends on the neighbours:
// with one request in flight the cores idle between every request and
// reply, and the same code read 190 µs and 350 µs a minute apart. So a
// run keeps every core from idling with one spinning thread per CPU in a
// child process, at SCHED_IDLE, the class that runs only when nothing
// else wants the CPU and is preempted the moment anything does: what
// idle=poll does for a bare machine. Switched on and off every four
// seconds under the same load it cut the spread of /spg p50 between
// windows from 0.17 to 0.09.

// schedIdle is Linux's SCHED_IDLE policy number.
const schedIdle = 5

// spinMain is the child's main: one SCHED_IDLE spinning thread per CPU
// until stdin closes (the parent died or stopped it). If the policy
// cannot be set it exits at once rather than compete with the servers.
func spinMain() {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n + 1) // the spinners never yield; main needs a P of its own
	refused := make(chan error, n)
	for range n {
		go func() {
			runtime.LockOSThread()
			var param struct{ priority int32 }
			if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
				refused <- errno
				return
			}
			for {
			}
		}()
	}
	go func() {
		fmt.Fprintln(os.Stderr, "benchmark: spinner: sched_setscheduler(SCHED_IDLE):", <-refused)
		os.Exit(1)
	}()
	_, _ = io.Copy(io.Discard, os.Stdin)
}

// spinner is the running spinner child.
type spinner struct {
	cmd   *exec.Cmd
	stdin io.Closer
	once  sync.Once
}

// startSpinner runs this program again as the spinner child.
func startSpinner() (*spinner, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	sp := &spinner{cmd: exec.Command(self, "-spin")}
	sp.cmd.Stderr = os.Stderr
	sp.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if sp.stdin, err = sp.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	if err := sp.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start spinner: %w", err)
	}
	liveMu.Lock()
	helpers = append(helpers, sp)
	liveMu.Unlock()
	return sp, nil
}

// stop kills the child and returns once it has ended.
func (sp *spinner) stop() {
	sp.once.Do(func() {
		_ = sp.stdin.Close()
		_ = sp.cmd.Process.Kill()
		_ = sp.cmd.Wait()
	})
}

// The reference server is how the benchmark tells the host's speed from
// the program's. The host runs in modes: for minutes at a time every
// request, whatever the code, takes a fifth to a half longer, and two
// sets of runs made twenty minutes apart differ by more than any bound.
// So the generator follows every read with one request to a server whose
// code never changes — this file, run as a child — and whose request
// costs what a read costs: a net/http round trip on a second keep-alive
// connection plus refLoads dependent loads from a 64 MB table, the cache
// misses of a label lookup. The bounded latency metrics are ratios to
// it, taken second by second. Over a 25-minute stream of /spg requests
// that met one slow stretch, the p50 of 30-second slices ranged over 37 %
// of its median in microseconds and over 11 % as a ratio.
const (
	refTableWords = 16 << 20 // uint32s: 64 MB, far beyond the caches
	refLoads      = 600      // about 150 µs of misses, the size of a /spg on yt-read
)

// refHandler answers /ref and /healthz.
func refHandler() http.Handler {
	table := make([]uint32, refTableWords)
	x := uint32(2463534242)
	for i := range table {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		table[i] = x
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) { _, _ = io.WriteString(w, "ok\n") })
	mux.HandleFunc("/ref", func(w http.ResponseWriter, r *http.Request) {
		start, _ := strconv.ParseUint(r.URL.Query().Get("s"), 10, 32)
		i, sum := uint32(start), uint32(0)
		for range refLoads {
			i = table[i%refTableWords]
			sum += i
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"sum\":%d}\n", sum)
	})
	return mux
}

// refMain is the child's main: the reference server on addr until it is
// killed.
func refMain(addr string) {
	fmt.Fprintln(os.Stderr, "benchmark: reference server:", http.ListenAndServe(addr, refHandler()))
	os.Exit(1)
}

// startRef runs this program again as the reference server and returns
// once it answers.
func startRef(ctx context.Context) (*proc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	p, err := startProc(ctx, self, "-ref")
	if err != nil {
		return nil, err
	}
	liveMu.Lock()
	helpers = append(helpers, p)
	liveMu.Unlock()
	return p, nil
}

// proc is one running server: a qbs-server or the reference server.
type proc struct {
	cmd  *exec.Cmd
	url  string
	out  bytes.Buffer // stdout+stderr, shown when the server fails
	done chan struct{}
}

// readyTimeout bounds the wait for a server's first 200 on /healthz.
const readyTimeout = 60 * time.Second

// startProc launches bin on a free loopback port and returns once
// /healthz answers 200. A server that exits or never becomes ready is
// reported with its captured output.
func startProc(ctx context.Context, bin string, args ...string) (*proc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	_ = l.Close()

	p := &proc{url: "http://" + addr, done: make(chan struct{})}
	p.cmd = exec.Command(bin, append(args, "-addr", addr)...)
	p.cmd.Stdout = &p.out
	p.cmd.Stderr = &p.out
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s %v: %w", filepath.Base(bin), args, err)
	}
	go func() {
		_ = p.cmd.Wait()
		close(p.done)
	}()

	c := dial(p.url)
	defer c.close()
	deadline := time.Now().Add(readyTimeout)
	for {
		if status, _, err := c.do("GET", "/healthz", nil); err == nil && status == 200 {
			return p, nil
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("%s %v exited before becoming ready:\n%s", filepath.Base(bin), args, p.out.String())
		case <-ctx.Done():
			p.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("%s %v not ready after %s:\n%s", filepath.Base(bin), args, readyTimeout, p.out.String())
		}
	}
}

// stop asks the server to drain (SIGTERM), kills it if it lingers, and
// returns once the process has ended.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// topology is the set of server processes one workload runs against.
type topology struct {
	procs []*proc
	dir   string // data directories of this topology; removed on stop

	readURL    string // where reads go (the router on yt-routed)
	writeURL   string // where writes go ("" on read-only workloads)
	backendURL string // the process that answers reads itself (the replica on yt-routed)
	primaryURL string // "" unless routed
}

var (
	liveMu  sync.Mutex
	live    = map[*topology]struct{}{} // topologies to tear down on SIGINT
	helpers []interface{ stop() }      // the spinner and the reference server, likewise
)

// stopAll tears down every topology still running, the spinner and the
// reference server; the signal handler and the exit paths of main call it.
func stopAll() {
	liveMu.Lock()
	tps := make([]*topology, 0, len(live))
	for tp := range live {
		tps = append(tps, tp)
	}
	hs := slices.Clone(helpers)
	liveMu.Unlock()
	for _, tp := range tps {
		tp.stop()
	}
	for _, h := range hs {
		h.stop()
	}
}

func (tp *topology) stop() {
	liveMu.Lock()
	delete(live, tp)
	liveMu.Unlock()
	for i := len(tp.procs) - 1; i >= 0; i-- {
		tp.procs[i].stop()
	}
	tp.procs = nil
	_ = os.RemoveAll(tp.dir)
}

// setUp starts the processes of w and returns once a /spg request
// through the read path is answered 200. The duration is the workload's
// setup_s: graph generation, index build or CreateStore, process start
// and, when routed, the replica's bootstrap.
func setUp(ctx context.Context, bin string, w workload) (*topology, time.Duration, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(workDir, "data-")
	if err != nil {
		return nil, 0, err
	}
	tp := &topology{dir: dir}
	liveMu.Lock()
	live[tp] = struct{}{}
	liveMu.Unlock()

	start := time.Now()
	graphArgs := []string{"-dataset", w.dataset, "-scale", strconv.FormatFloat(w.scale, 'g', -1, 64)}
	launch := func(args ...string) (*proc, error) {
		p, err := startProc(ctx, bin, args...)
		if err == nil {
			tp.procs = append(tp.procs, p)
		}
		return p, err
	}
	fail := func(err error) (*topology, time.Duration, error) {
		tp.stop()
		return nil, 0, err
	}
	switch {
	case w.routed:
		primary, err := launch(append(graphArgs, "-primary", "-data", filepath.Join(dir, "primary"))...)
		if err != nil {
			return fail(err)
		}
		replica, err := launch("-replica-of", primary.url, "-data", filepath.Join(dir, "replica"))
		if err != nil {
			return fail(err)
		}
		router, err := launch("-router", primary.url+","+replica.url)
		if err != nil {
			return fail(err)
		}
		tp.readURL, tp.writeURL = router.url, router.url
		tp.backendURL, tp.primaryURL = replica.url, primary.url
	case w.mutable:
		p, err := launch(append(graphArgs, "-mutable", "-data", filepath.Join(dir, "store"))...)
		if err != nil {
			return fail(err)
		}
		tp.readURL, tp.writeURL, tp.backendURL = p.url, p.url, p.url
	case w.directed:
		p, err := launch(append(graphArgs, "-directed")...)
		if err != nil {
			return fail(err)
		}
		tp.readURL, tp.backendURL = p.url, p.url
	default:
		p, err := launch(graphArgs...)
		if err != nil {
			return fail(err)
		}
		tp.readURL, tp.backendURL = p.url, p.url
	}
	c := dial(tp.readURL)
	defer c.close()
	status, body, err := c.do("GET", "/spg?u=0&v=1", nil)
	if err != nil || status != 200 {
		return fail(fmt.Errorf("first /spg through %s: status %d, err %v, body %s", tp.readURL, status, err, body))
	}
	return tp, time.Since(start), nil
}

// procStat is what /proc tells about one server from outside.
type procStat struct {
	cpu     time.Duration // utime + stime
	peakRSS int64         // VmHWM, bytes
	threads int
}

// userHz is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux the Go toolchain supports.
const userHz = 100

func readProcStat(pid int) (procStat, error) {
	var st procStat
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return st, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	rest := string(raw)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return st, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return st, errors.New("unparsable /proc stat times")
	}
	st.cpu = time.Duration(utime+stime) * time.Second / userHz

	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return st, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		switch f[0] {
		case "VmHWM:":
			kb, _ := strconv.ParseInt(f[1], 10, 64)
			st.peakRSS = kb << 10
		case "Threads:":
			st.threads, _ = strconv.Atoi(f[1])
		}
	}
	return st, nil
}

// stat sums procStat over the topology's processes.
func (tp *topology) stat() (procStat, error) {
	var sum procStat
	for _, p := range tp.procs {
		st, err := readProcStat(p.cmd.Process.Pid)
		if err != nil {
			return sum, err
		}
		sum.cpu += st.cpu
		sum.peakRSS += st.peakRSS
		sum.threads += st.threads
	}
	return sum, nil
}

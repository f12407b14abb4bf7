// Command perfbench is the serving-path benchmark. It assembles the
// three serving tiers in one process from their public constructors
// (store.Open → cluster.NewStoreServer → cluster.NewRemote →
// service.New → cluster.NewForwarder, each on a loopback listener) and
// drives them with a closed-loop client over at most nproc connections.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash perfbench/run.sh --selftest
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// wraps every tier from outside and prints the per-layer metrics. The
// last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setups is how many times a run assembles and warms a stack; setup_s
// is their median. Only the last stack is measured.
const setups = 3

// workload is one traffic mix over a stack.
type workload interface {
	// prepare builds the workload's inputs on a fresh stack and warms
	// it up (caches, pools, sessions). It returns the warm-up op count.
	prepare(ctx context.Context, s *stack) (int, error)
	// op runs one operation for client c under request id rid and checks
	// its answer; a non-nil error counts the op as failed.
	op(ctx context.Context, c int, rid string) error
	// verify runs the end-of-run checks, outside the timed window.
	verify(ctx context.Context) error
	// advisor feeds the workload's seeded streams straight to
	// advisor.Session and advisor.ReplaySession (traced run only).
	advisor(ctx context.Context) (advisorTimes, error)
	// cellsPerOp is the sweep cells one op computes (0 for non-sweeps).
	cellsPerOp() int
}

// errExhausted stops a client whose workload has no fresh op left.
var errExhausted = errors.New("perfbench: workload inputs exhausted")

type workloadDef struct {
	name string
	make func(seed uint64) workload
}

var workloads = []workloadDef{
	{"events-durable", newEventsWorkload},
	{"replay-recover", newReplayWorkload},
	{"sweep-job", newSweepWorkload},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: events-durable, replay-recover or sweep-job")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 15, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	root := flag.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	selftest := flag.Bool("selftest", false, "check that the exact counts repeat, then exit")
	flag.Parse()

	scratch := filepath.Join(*root, ".bench_build")
	if *selftest {
		if err := selfTest(*root, scratch); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.name == *name })
	if i < 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (events-durable, replay-recover, sweep-job), --seconds > 0, --trace 0|1\n")
		return 2
	}
	res, err := runWorkload(workloads[i], *seed, time.Duration(*seconds)*time.Second, *trace == 1, scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// traceRounds is how many times the traced run alternates between its
// untraced and traced phases.
const traceRounds = 4

// window is one timed closed-loop measurement.
type window struct {
	lat       []time.Duration
	starts    []time.Time // when each op of lat started
	probes    []probePoint
	rids      map[string]bool
	attempted int
	failed    int
	firstErr  error
	wall      time.Duration
	cpu       time.Duration
	allocB    uint64
	gcs       uint32
}

// add folds another measurement of the same stack into w.
func (w *window) add(o *window) {
	w.lat = append(w.lat, o.lat...)
	w.starts = append(w.starts, o.starts...)
	for r := range o.rids {
		w.rids[r] = true
	}
	w.attempted += o.attempted
	w.failed += o.failed
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
	w.wall += o.wall
	w.cpu += o.cpu
	w.allocB += o.allocB
	w.gcs += o.gcs
}

func (w *window) mean() time.Duration {
	if len(w.lat) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range w.lat {
		sum += l
	}
	return sum / time.Duration(len(w.lat))
}

// measure runs the closed loop: each of the clients sends its next op
// only once the previous one has been answered, until the deadline (or
// until maxOps ops have started, when maxOps > 0). With a recorder that
// is on, each op is recorded as a client span. With a probe, the window
// is bracketed by probe samples and sampled every probeEvery, with the
// clients held between ops meanwhile.
func measure(ctx context.Context, w workload, clients int, d time.Duration, maxOps int, prefix string, rec *recorder, probe *speedProbe) *window {
	var (
		gate   sync.RWMutex // held by each op; the probe takes it alone
		probes []probePoint
	)
	sample := func() {
		c0, t0 := cpuTime(), time.Now()
		m := probe.sample()
		probes = append(probes, probePoint{at: t0, ms: m, cpuStart: c0, cpuEnd: cpuTime()})
	}
	if probe != nil {
		sample()
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	stop, paced := make(chan struct{}), make(chan struct{})
	if probe != nil {
		go func() {
			defer close(paced)
			tk := time.NewTicker(probeEvery)
			defer tk.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tk.C:
				}
				gate.Lock()
				sample()
				gate.Unlock()
			}
		}()
	} else {
		close(paced)
	}
	var started atomic.Int64
	per := make([]*window, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			win := &window{rids: map[string]bool{}}
			per[c] = win
			for k := 0; ; k++ {
				if maxOps > 0 {
					if started.Add(1) > int64(maxOps) {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				rid := fmt.Sprintf("%s%d-%d", prefix, c, k)
				gate.RLock()
				t0 := time.Now()
				span := rec.begin()
				err := w.op(ctx, c, rid)
				lat := time.Since(t0)
				gate.RUnlock()
				if errors.Is(err, errExhausted) {
					return
				}
				rec.end(layerClient, "", rid, span, 0, err != nil)
				win.attempted++
				win.lat = append(win.lat, lat)
				win.starts = append(win.starts, t0)
				win.rids[rid] = true
				if err != nil {
					win.failed++
					if win.firstErr == nil {
						win.firstErr = fmt.Errorf("op %s: %w", rid, err)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-paced
	out := &window{rids: map[string]bool{}, wall: time.Since(start), cpu: cpuTime() - cpu0}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if probe != nil {
		sample()
		out.probes = probes
		for k := 1; k < len(probes)-1; k++ {
			out.cpu -= probes[k].cpuEnd - probes[k].cpuStart
		}
	}
	out.allocB = after.TotalAlloc - before.TotalAlloc
	out.gcs = after.NumGC - before.NumGC
	for _, p := range per {
		p.wall, p.cpu = 0, 0
		out.add(p)
	}
	return out
}

// scaled returns the window's op latencies and CPU time (without the
// probe's) quoted at the reference speed: what was measured between two
// probe samples is scaled by scale over those two.
func (w *window) scaled() ([]time.Duration, time.Duration) {
	p := w.probes
	lat := make([]time.Duration, len(w.lat))
	for i, l := range w.lat {
		k := sort.Search(len(p), func(j int) bool { return p[j].at.After(w.starts[i]) }) - 1
		k = min(max(k, 0), len(p)-2)
		lat[i] = time.Duration(float64(l) * scale(p[k].ms, p[k+1].ms))
	}
	var cpu float64
	for k := 0; k+1 < len(p); k++ {
		cpu += float64(p[k+1].cpuStart-p[k].cpuEnd) * scale(p[k].ms, p[k+1].ms)
	}
	return lat, time.Duration(cpu)
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// tail returns the highest of p99, p95 and p90 that has at least ten
// samples beyond it (nearest-rank), with its name. Below 100 samples it
// falls back to the maximum.
func tail(sorted []time.Duration) (time.Duration, string) {
	n := len(sorted)
	for _, q := range []struct {
		name string
		p    float64
	}{{"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}} {
		rank := int(math.Ceil(q.p * float64(n)))
		if n-rank >= 10 {
			return sorted[rank-1], q.name
		}
	}
	return sorted[n-1], "max"
}

// tailSlice is the ops per slice of the window that tail_ms takes its
// percentile over.
const tailSlice = 1000

// sliceTail splits the ops, in the order they started, into slices of
// at least tailSlice ops (one slice when there are fewer than twice
// that), takes tail of each and returns the median with the
// percentile's name and the slice count. With a thousand ops a slice the
// tail is a p99, and a stall of the shared host's disk in one second of
// the window moves one slice's p99, not the run's.
func sliceTail(lat []time.Duration, starts []time.Time) (time.Duration, string, int) {
	order := make([]int, len(lat))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return starts[order[a]].Before(starts[order[b]]) })
	n := len(order)
	k := max(1, n/tailSlice)
	tails := make([]float64, k)
	var which string
	for i := range k {
		part := make([]time.Duration, 0, n/k+1)
		for _, j := range order[i*n/k : (i+1)*n/k] {
			part = append(part, lat[j])
		}
		slices.Sort(part)
		t, name := tail(part)
		tails[i], which = float64(t), name
	}
	return time.Duration(median(tails)), which, k
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runWorkload sets the workload up several times, measures the last
// stack and checks the outputs.
func runWorkload(def workloadDef, seed uint64, d time.Duration, traced bool, scratch string) (*result, error) {
	ctx := context.Background()
	storeRoot := filepath.Join(scratch, "stores")
	if err := os.MkdirAll(storeRoot, 0o755); err != nil {
		return nil, err
	}
	// One closed-loop client, over one connection, per CPU.
	clients := runtime.NumCPU()
	var (
		rec   *recorder
		probe *speedProbe
	)
	if traced {
		rec = newRecorder()
	} else {
		var err error
		if probe, err = newSpeedProbe(runtime.GOMAXPROCS(0)); err != nil {
			return nil, err
		}
	}
	var (
		st        *stack
		w         workload
		warm      int
		setupS    []float64
		setupRawS []float64
	)
	for i := range setups {
		var before float64
		if probe != nil {
			before = probe.sample()
		}
		t0 := time.Now()
		s, err := newStack(storeRoot, rec, clients)
		if err != nil {
			return nil, err
		}
		wl := def.make(seed)
		n, err := wl.prepare(ctx, s)
		took := time.Since(t0).Seconds()
		setupRawS = append(setupRawS, took)
		if probe != nil {
			took *= scale(before, probe.sample())
		}
		setupS = append(setupS, took)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		if i < setups-1 {
			s.close()
			continue
		}
		st, w, warm = s, wl, n
	}
	defer st.close()

	stamp := map[string]any{
		"workload": def.name, "seed": seed, "seconds": d.Seconds(), "trace": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"clients": clients, "loop": "closed", "warmup_ops": warm, "setups": setups,
		"store_dir": st.dir, "store_fs": fsType(st.dir), "flush": "FileStore fsyncs before every ack",
	}

	res := &result{Metrics: map[string]metric{}}
	var win *window
	if !traced {
		win = measure(ctx, w, clients, d, 0, "op-", nil, probe)
		if len(win.lat) == 0 {
			return nil, errors.New("no op completed in the timed window")
		}
		lat, cpu := win.scaled()
		tl, which, nslices := sliceTail(lat, win.starts)
		rawTail, _, _ := sliceTail(win.lat, win.starts)
		slices.Sort(lat)
		raw := slices.Clone(win.lat)
		slices.Sort(raw)
		stamp["tail_percentile"], stamp["tail_slices"], stamp["samples"] = which, nslices, len(lat)
		res.Metrics["p50_ms"] = metric{ms(lat[(len(lat)-1)/2]), "ms"}
		res.Metrics["tail_ms"] = metric{ms(tl), "ms"}
		res.Metrics["cpu_ms_per_op"] = metric{ms(cpu) / float64(win.attempted), "ms"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		res.Metrics["setup_s"] = metric{median(setupS), "s"}
		probeMS := make([]float64, len(win.probes))
		for i, p := range win.probes {
			probeMS[i] = p.ms
		}
		stamp["probe"] = map[string]any{
			"ref_ms": probeRefMS, "samples": len(probeMS), "median_ms": median(probeMS),
			"min_ms": slices.Min(probeMS), "max_ms": slices.Max(probeMS), "parts": probe.partMedians(),
		}
		stamp["unscaled"] = map[string]any{
			"p50_ms": ms(raw[(len(raw)-1)/2]), "tail_ms": ms(rawTail),
			"cpu_ms_per_op": ms(win.cpu) / float64(win.attempted), "setup_s": median(setupRawS),
		}
	} else {
		// The tracing overhead: the same stack with the recorder off, then
		// on, alternating so that drift in the machine's speed hits both.
		off, on := &window{rids: map[string]bool{}}, &window{rids: map[string]bool{}}
		c0, _ := st.eng.CacheStats()
		for k := range traceRounds {
			off.add(measure(ctx, w, clients, d/(3*traceRounds), 0, fmt.Sprintf("u%d-", k), rec, nil))
			st.settle()
			rec.on.Store(true)
			on.add(measure(ctx, w, clients, d/traceRounds, 0, fmt.Sprintf("t%d-", k), rec, nil))
			st.settle()
			rec.on.Store(false)
		}
		c1, _ := st.eng.CacheStats()
		win = on
		if win.attempted == 0 {
			return nil, errors.New("no op completed in the traced window")
		}
		spans := rec.take()
		lm := layerMetrics(spans, win, w.cellsPerOp(), cacheDelta{c1.Hits - c0.Hits, c1.Misses - c0.Misses})
		lm["trace.overhead_pct"] = metric{100 * (float64(win.mean()) - float64(off.mean())) / float64(off.mean()), "%"}
		at, err := w.advisor(ctx)
		if err != nil {
			return nil, fmt.Errorf("advisor streams: %w", err)
		}
		lm["advisor.observe_ns"] = metric{at.observeNS, "ns"}
		lm["advisor.replan_us"] = metric{at.replanUS, "us"}
		lm["advisor.replay_session_ms"] = metric{at.replaySessionMS, "ms"}
		res.Metrics = lm
		stamp["traced_ops"], stamp["untraced_ops"], stamp["spans"] = win.attempted, off.attempted, len(spans)
		stamp["self_sum_ratio"] = selfSumRatio(lm, "client", "lb", "serve", "wire", "storesrv", "filestore")
		stamp["program_layers_ratio"] = selfSumRatio(lm, "lb", "serve", "wire", "storesrv", "filestore")
		tdir := filepath.Join(scratch, "traces")
		if err := os.MkdirAll(tdir, 0o755); err == nil {
			path := filepath.Join(tdir, fmt.Sprintf("%s-seed%d.ndjson", def.name, seed))
			if err := dump(path, spans); err == nil {
				stamp["spans_file"] = path
			}
		}
		win.attempted += off.attempted
		win.failed += off.failed
		if win.firstErr == nil {
			win.firstErr = off.firstErr
		}
	}
	res.Attempted, res.Failed = win.attempted, win.failed
	res.Correct = win.failed == 0
	if win.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failed op:", win.firstErr)
	}
	if err := w.verify(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: verify:", err)
		res.Correct = false
	}
	if cs, ok := st.eng.CacheStats(); ok {
		stamp["engine_cache"] = map[string]any{"entries": cs.Entries, "bytes": cs.Bytes, "hits": cs.Hits, "misses": cs.Misses, "evictions": cs.Evictions}
	}
	b, _ := json.Marshal(stamp)
	fmt.Println("stamp " + string(b))
	return res, nil
}

// fsType names the filesystem holding dir, from statfs.
func fsType(dir string) string {
	var sf syscall.Statfs_t
	if err := syscall.Statfs(dir, &sf); err != nil {
		return "unknown"
	}
	switch uint64(sf.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext2/3/4 (disk, no tmpfs)"
	}
	return fmt.Sprintf("statfs type 0x%x (not tmpfs)", uint64(sf.Type))
}

// Command perfbench is ALOHA-DB's benchmark. It builds a two-server
// cluster in-process for one named workload, drives it with operations
// generated from a seed through the public entry points (an open loop at a
// fixed rate, then a closed loop), checks the results against its own
// tallies, and prints every metric with its unit. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 a second, traced cluster gives the per-layer ones.
//
//	go build -o perfbench . && ./perfbench --workload tpcc-sim --seed 1 --seconds 14 --trace 0
//
// See README.md for the workloads and how to read the output.
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
	"strings"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/epoch"
	"alohadb/internal/scenario"
	"alohadb/internal/trace"
	"alohadb/internal/transport"
	"alohadb/internal/wal"
)

const (
	// Untimed ops before each measured window: long enough for a fresh
	// cluster to pass the 40-epoch retention horizon, after which every
	// epoch commit compacts the store.
	warmup = 2 * time.Second
	// Rounds per end-to-end run, each on a freshly built cluster.
	rounds = 4
	// Program tracer: head-sampling rate and ring size chosen so the ring
	// holds every sampled span of a traced window of up to 15 s (a quarter
	// of the longest run); a run prints how many it dropped.
	traceSampleRate = 0.05
	traceRingSize   = 1 << 18
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	commit   string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the operation generators")
	flag.IntVar(&cfg.seconds, "seconds", 14, "open-loop seconds measured per run, split over the rounds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end run")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for the run record, spans and WAL files")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source revision stamped into the run record")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return names
}

// metric is one printed result. Base explains the denominator of a ratio
// or the sample count behind a percentile.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Base  string  `json:"base,omitempty"`
}

// result is the per-run record written next to the spans.
type result struct {
	Stamp     map[string]any    `json:"stamp"`
	Correct   bool              `json:"correct"`
	CheckErr  string            `json:"check_error,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Ops       map[string][4]int `json:"ops"` // attempted, committed, logic-aborted, failed
	Metrics   []metric          `json:"metrics"`
	SelfTime  []selfStat        `json:"self_time,omitempty"`
	Closed    map[string][4]int `json:"closed_ops,omitempty"` // closed-loop accounting, same columns
}

func run(cfg config) error {
	sp, ok := specByName(cfg.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be positive")
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	walDir, err := os.MkdirTemp(cfg.out, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)

	// The end-to-end run splits --seconds of open loop, and a closed loop
	// of half that, into rounds, each on a freshly built cluster. The
	// traced run measures an untraced and a traced open-loop window of one
	// round's length, so that both meet the GC cycles a round meets.
	window := time.Duration(cfg.seconds) * time.Second
	closedDur, perRound := window/2, window/rounds
	if cfg.trace {
		window, closedDur = perRound, 0
	}
	warm := int(sp.rate * warmup.Seconds())
	chunk := warm + int(sp.rate*perRound.Seconds())
	stamp := map[string]any{
		"workload": sp.name, "about": sp.about, "seed": cfg.seed, "nproc": nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "commit": cfg.commit,
		"offered_ops_per_s": sp.rate, "warmup_s": warmup.Seconds(), "open_loop_s": window.Seconds(),
		"closed_loop_s": closedDur.Seconds(), "rounds": int(window / perRound), "closed_clients": nproc, "closed_batch": closedBatch,
		"servers": numServers, "epoch_ms": ms(epochLen), "trace": cfg.trace, "out": cfg.out,
	}
	printStamp(stamp)

	next := sp.make().gen(cfg.seed)
	if cfg.trace {
		return runTraced(cfg, sp, stamp, next, chunk, warm, walDir)
	}
	return runEndToEnd(cfg, sp, stamp, next, chunk, warm, closedDur/rounds, walDir)
}

// generate draws the next n open-loop ops from the seeded generator. Each
// window's ops are generated before its clock starts; the program sees only
// the generated transactions and keys. genAt[i] and genAt[i+1] bracket the
// generation of op i.
func generate(next func() op, n int) (ops []op, genAt []time.Time) {
	ops = make([]op, n)
	genAt = make([]time.Time, n+1)
	genAt[0] = time.Now()
	for i := range ops {
		ops[i] = next()
		genAt[i+1] = time.Now()
	}
	return ops, genAt
}

// build sets a cluster up, timing construction plus preload.
func build(sp spec, tr *trace.Tracer, walDir string) (workload, *scenario.Env, time.Duration, error) {
	wl := sp.make()
	dir, err := os.MkdirTemp(walDir, "c-")
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	env, err := wl.build(tr, dir)
	d := time.Since(t0)
	if err != nil {
		wl.close()
		return nil, nil, 0, fmt.Errorf("set up %s: %w", sp.name, err)
	}
	return wl, env, d, nil
}

func teardown(wl workload, env *scenario.Env) {
	env.Close()
	wl.close()
	runtime.GC()
}

// runEndToEnd measures the rounds one after another. Each round builds a
// cluster, drives an open-loop window and then a closed loop through it,
// checks its results, and tears it down; each metric is the median over
// the rounds (latency percentiles: see latency), so a cluster that happens
// to settle into a slow epoch cadence moves it less.
func runEndToEnd(cfg config, sp spec, stamp map[string]any, next func() op, chunk, warm int, closedDur time.Duration, walDir string) error {
	var (
		setups, cpu, heap, peak []float64
		phases                  []*phase
		checkErrs               []error
		closed                  [4]int
	)
	for r := 0; r < rounds; r++ {
		// The first round also builds and discards the extra set-ups that
		// steady setup_s.
		n := 1
		if r == 0 {
			n += max(sp.setups-rounds, 0)
		}
		var wl workload
		var env *scenario.Env
		for i := 0; i < n; i++ {
			w, e, d, err := build(sp, nil, walDir)
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
			if i < n-1 {
				teardown(w, e)
				continue
			}
			wl, env = w, e
		}
		ops, _ := generate(next, chunk)
		ph, err := openLoop(env, wl, ops, warm, sp.rate, nil)
		if err != nil {
			teardown(wl, env)
			return fmt.Errorf("round %d: %w", r+1, err)
		}
		cl, err := closedLoop(env, wl, cfg.seed*31+int64(r), runtime.NumCPU(), closedDur)
		if err != nil {
			teardown(wl, env)
			return fmt.Errorf("round %d: %w", r+1, err)
		}
		if err := finalCheck(env, wl, ph); err != nil {
			checkErrs = append(checkErrs, fmt.Errorf("round %d: %w", r+1, err))
		}
		teardown(wl, env)
		phases = append(phases, ph)
		cpu = append(cpu, cpuPerOp(ph))
		heap = append(heap, float64(ph.heapLive)/(1<<20))
		peak = append(peak, float64(cl.committed)/cl.elapsed.Seconds())
		for i, v := range [4]int{cl.attempted, cl.committed, cl.aborted, cl.failed} {
			closed[i] += v
		}
	}

	// ack_p99_ms and read_p99_ms are reported by the traced run: GC-linked
	// stalls make them spread too widely between runs to gate on (see
	// README.md).
	ms := []metric{
		latency("commit_p50_ms", phases, commitOf, 0.5),
		latency("commit_p99_ms", phases, commitOf, 0.99),
		latency("ack_p50_ms", phases, ackOf, 0.5),
		latency("read_p50_ms", phases, readOf, 0.5),
	}
	ms = append(ms,
		metric{"peak_txn_per_s", median(peak), "1/s", fmt.Sprintf("median of %d closed loops of %.3f s with the drain %v, %d clients x batch %d",
			rounds, closedDur.Seconds(), roundAll(peak), runtime.NumCPU(), closedBatch)},
		metric{"cpu_us_per_op", median(cpu), "us", fmt.Sprintf("median of %d windows %v of process CPU per completed (committed or aborted) op", rounds, roundAll(cpu))},
		metric{"heap_live_mb", median(heap), "MB", fmt.Sprintf("median of %d windows %v of live heap after a forced GC at the end of the open loop", rounds, roundAll(heap))},
		metric{"setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups, %.4f to %.4f", len(setups), slices.Min(setups), slices.Max(setups))},
	)
	res := newResult(stamp, phases, errors.Join(checkErrs...), ms)
	res.Closed = map[string][4]int{"closed-loop writes": closed}
	res.Attempted += closed[0]
	res.Failed += closed[3]
	return report(cfg, res)
}

func runTraced(cfg config, sp spec, stamp map[string]any, next func() op, n, warm int, walDir string) error {
	// Both windows run the same ops, on fresh clusters.
	ops, genAt := generate(next, n)
	// Untraced reference window, for the tracing-overhead row.
	wl, env, _, err := build(sp, nil, walDir)
	if err != nil {
		return err
	}
	base, err := openLoop(env, wl, ops, warm, sp.rate, nil)
	if err != nil {
		teardown(wl, env)
		return err
	}
	baseErr := finalCheck(env, wl, base)
	teardown(wl, env)

	tr := trace.New(trace.Config{SampleRate: traceSampleRate, RingSize: traceRingSize})
	spans := newSpanLog(len(ops) * 5)
	wl, env, _, err = build(sp, tr, walDir)
	if err != nil {
		return err
	}
	defer teardown(wl, env)
	for i := range ops { // generation happened before the clock started
		spans.add(uint64(i+1), 0, "bench.gen", genAt[i], genAt[i+1])
	}
	genUS := float64(genAt[len(ops)].Sub(genAt[0])) / 1e3 / float64(len(ops))
	ph, err := openLoop(env, wl, ops, warm, sp.rate, spans)
	if err != nil {
		return err
	}
	checkErr := errors.Join(baseErr, finalCheck(env, wl, ph))

	all := append(spans.all(), programSpans(tr.Traces())...)
	self := selfTimes(all)
	if err := writeSpans(filepath.Join(cfg.out, "spans-"+sp.name+".jsonl.gz"), all); err != nil {
		return err
	}
	fmt.Printf("# self time per span (bench: the benchmark's spans around public calls; program: the built-in tracer, %.0f%% head-sampled, %d spans kept, %d dropped)\n",
		100*traceSampleRate, len(all)-len(spans.all()), tr.Dropped())
	printSelfTable(os.Stdout, self)

	ms := layerMetrics(wl, ph, all, self, genUS)
	bp50, _ := percentile(column(base, commitOf), 0.5)
	tp50, _ := percentile(column(ph, commitOf), 0.5)
	bcpu, tcpu := cpuPerOp(base), cpuPerOp(ph)
	fmt.Printf("# tracing overhead: commit_p50_ms traced %.3f - untraced %.3f = %+.3f; cpu_us_per_op traced %.1f - untraced %.1f = %+.1f\n",
		tp50, bp50, tp50-bp50, tcpu, bcpu, tcpu-bcpu)
	ms = append(ms,
		metric{"tracing.commit_p50_delta_ms", tp50 - bp50, "ms", fmt.Sprintf("traced %.3f - untraced %.3f", tp50, bp50)},
		metric{"tracing.cpu_us_per_op_delta", tcpu - bcpu, "us", fmt.Sprintf("traced %.1f - untraced %.1f", tcpu, bcpu)},
		latency("ack_p99_ms", []*phase{base}, ackOf, 0.99),
		latency("read_p99_ms", []*phase{base}, readOf, 0.99),
	)
	res := newResult(stamp, []*phase{base, ph}, checkErr, ms)
	res.SelfTime = self
	return report(cfg, res)
}

// finalCheck settles the cluster and compares its state with the tallies.
func finalCheck(env *scenario.Env, wl workload, ph *phase) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := env.Quiesce(ctx); err != nil {
		return err
	}
	return wl.check(ctx, env.Cluster, ph.reads)
}

// cpuPerOp is the process CPU of a measured window, in µs, per op that
// completed in it.
func cpuPerOp(ph *phase) float64 {
	return float64(ph.end.cpu-ph.start.cpu) / 1e3 / float64(max(ph.completed(), 1))
}

// Latency fields of an opResult, in ms from the op's due time.
func commitOf(r opResult) float64 { return r.commit }
func ackOf(r opResult) float64    { return r.ack }
func readOf(r opResult) float64   { return r.read }

// column extracts one field of every measured op of a phase.
func column(ph *phase, f func(opResult) float64) []float64 {
	out := make([]float64, len(ph.results))
	for i, r := range ph.results {
		out[i] = f(r)
	}
	return out
}

// latency reports the q-quantile of f over the measured ops of phases.
// A tail quantile (q > 0.5) is taken per sub-window of each phase and the
// metric is the median of those, so that a stall of the shared machine
// spoils a sub-window and not the metric. A median is taken over every
// op pooled instead: a stall moves it little, while sub-window medians
// can split between two modes (read-mix reads: about 1.1 ms or 2 ms) and
// their median jump from one to the other between runs. Neither hides a
// failure: one +Inf sample anywhere makes the metric +Inf.
func latency(name string, phases []*phase, f func(opResult) float64, q float64) metric {
	var all, parts []float64
	least := math.MaxInt
	for _, ph := range phases {
		c := column(ph, f)
		all = append(all, c...)
		p, n := subWindows(c, q)
		parts = append(parts, p...)
		least = min(least, n)
	}
	m := metric{Name: name, Unit: "ms"}
	if q <= 0.5 {
		var n int
		m.Value, n = percentile(all, q)
		m.Base = fmt.Sprintf("%d samples pooled over %d windows", n, len(phases))
	} else {
		m.Value = median(parts)
		m.Base = fmt.Sprintf("median of %d sub-windows %v, >= %d samples each", len(parts), roundAll(parts), least)
	}
	if slices.ContainsFunc(all, func(x float64) bool { return math.IsInf(x, 1) }) {
		m.Value = math.Inf(1)
	}
	return m
}

// layerMetrics computes the per-layer metrics of a traced window.
func layerMetrics(wl workload, ph *phase, spans []span, self []selfStat, genUS float64) []metric {
	s, e := ph.start, ph.end
	n := float64(ph.measured)
	delta := func(name string) float64 { return e.counter(name) - s.counter(name) }
	frac := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	pct := func(vals []float64, q float64) (float64, string) {
		v, k := percentile(vals, q)
		if k == 0 {
			return 0, "0 samples"
		}
		return v, fmt.Sprintf("%d samples", k)
	}
	late := column(ph, func(r opResult) float64 { return r.late })
	submit := column(ph, func(r opResult) float64 { return r.submit })
	await := column(ph, func(r opResult) float64 { return r.await })
	route := column(ph, func(r opResult) float64 { return r.routeNS })
	perOp := fmt.Sprintf("per %d measured ops", ph.measured)

	var out []metric
	add := func(name string, v float64, unit, base string) { out = append(out, metric{name, v, unit, base}) }
	v, b := pct(late, 0.99)
	add("loadgen.late_p99_ms", v, "ms", b)
	add("loadgen.inflight_max", float64(ph.inflight), "count", "ops in flight at once")
	add("workload.gen_us", genUS, "us", "mean generation time per op")
	v, b = pct(submit, 0.5)
	add("coordinator.submit_p50_ms", v, "ms", b)
	v, b = pct(submit, 0.99)
	add("coordinator.submit_p99_ms", v, "ms", b)
	sv, k := meanSelf(self, "program", "txn.install")
	add("coordinator.install_self_ms", sv, "ms", fmt.Sprintf("mean over %d sampled txn.install spans", k))
	v, b = pct(await, 0.5)
	add("processor.await_p50_ms", v, "ms", b)
	v, b = pct(await, 0.99)
	add("processor.await_p99_ms", v, "ms", b)
	ch := histDelta(e.hist(core.FamStageCompute), s.hist(core.FamStageCompute))
	add("functor.compute_p99_us", float64(ch.Quantile(0.99))/1e3, "us", fmt.Sprintf("%d computes", ch.Count))
	computed := delta(core.FamFunctorsComputed)
	add("processor.computes_per_op", frac(computed, n), "count", fmt.Sprintf("%.0f computes %s", computed, perOp))
	// The program exports an on-demand counter but never increments it;
	// its sampled compute spans tell the two kinds apart instead.
	onDemand, sampled := onDemandComputes(spans)
	add("processor.on_demand_frac", frac(float64(onDemand), float64(sampled)), "ratio",
		fmt.Sprintf("%d of %d sampled functor.compute spans with a read span as parent", onDemand, sampled))
	hits, pushes := delta(core.FamPushHits), delta(core.FamPushesSent)
	add("processor.push_hit_frac", frac(hits, pushes), "ratio", fmt.Sprintf("%.0f hits / %.0f pushes sent", hits, pushes))
	rb := histDelta(e.hist(core.FamReadBatchSize), s.hist(core.FamReadBatchSize))
	add("combiner.read_batch_mean", frac(float64(rb.Sum), float64(rb.Count)), "count", fmt.Sprintf("%d read batches", rb.Count))
	eb := histDelta(e.hist(core.FamEnsureBatchSize), s.hist(core.FamEnsureBatchSize))
	add("combiner.ensure_batch_mean", frac(float64(eb.Sum), float64(eb.Count)), "count", fmt.Sprintf("%d ensure batches", eb.Count))
	msgs := delta(transport.FamMsgsSent)
	add("transport.msgs_per_op", frac(msgs, n), "count", fmt.Sprintf("%.0f msgs %s", msgs, perOp))
	bytes := delta(transport.FamBytesSent)
	add("transport.bytes_per_op", frac(bytes, n), "B", fmt.Sprintf("%.0f bytes %s (in-memory mesh sends none)", bytes, perOp))
	writes := delta(transport.FamSocketWrites)
	add("transport.socket_writes_per_op", frac(writes, n), "count", fmt.Sprintf("%.0f socket writes %s", writes, perOp))

	hot := len(wl.hotKeys())
	add("mvstore.keys", float64(ph.keys), "count", "keys in all stores at the end of the window")
	add("mvstore.hot_chain_len", frac(float64(ph.hotLen), float64(hot)), "count", fmt.Sprintf("mean versions over %d hot keys at the end of the window", hot))
	add("mvstore.latest_ns", median(ph.latestNS), "ns", fmt.Sprintf("median of %d Store.Latest probes on hot keys", len(ph.latestNS)))
	compacted := delta(core.FamVersionsCompacted)
	add("mvstore.compacted_per_op", frac(compacted, n), "count", fmt.Sprintf("%.0f versions compacted %s", compacted, perOp))

	sw := histDelta(e.hist(epoch.FamSwitch), s.hist(epoch.FamSwitch))
	add("epoch.switch_p50_ms", float64(sw.Quantile(0.5))/1e6, "ms", fmt.Sprintf("%d switches", sw.Count))
	add("epoch.switch_p99_ms", float64(sw.Quantile(0.99))/1e6, "ms", fmt.Sprintf("%d switches", sw.Count))
	epochs := float64(e.epoch - s.epoch)
	add("epoch.interval_ms", frac(ms(ph.window), epochs), "ms", fmt.Sprintf("%.3f s / %.0f epochs", ph.window.Seconds(), epochs))
	txns := delta(core.FamTxnsCommitted)
	add("epoch.txns_per_epoch", frac(txns, epochs), "count", fmt.Sprintf("%.0f committed txns / %.0f epochs", txns, epochs))
	sv, k = meanSelf(self, "program", "visibility.wait")
	add("visibility.wait_self_ms", sv, "ms", fmt.Sprintf("mean over %d sampled visibility.wait spans", k))
	add("placement.route_ns", median(route), "ns", "median over write ops of mean Table.Route time per key")
	wb := histDelta(e.hist(wal.FamAppendBytes), s.hist(wal.FamAppendBytes))
	add("wal.bytes_per_op", frac(float64(wb.Sum), n), "B", fmt.Sprintf("%d WAL bytes %s", wb.Sum, perOp))
	fs := histDelta(e.hist(wal.FamFsync), s.hist(wal.FamFsync))
	add("wal.fsync_p99_ms", float64(fs.Quantile(0.99))/1e6, "ms", fmt.Sprintf("%d fsyncs", fs.Count))
	add("obs.scrape_ms", median(ph.scrapes), "ms", fmt.Sprintf("median of %d Cluster.Metrics calls", len(ph.scrapes)))

	cpu := (e.cpu - s.cpu).Seconds()
	gc := e.rt.gcCPU - s.rt.gcCPU
	add("runtime.gc_cpu_frac", frac(gc, cpu), "ratio", fmt.Sprintf("%.3f s GC CPU / %.3f s process CPU", gc, cpu))
	ab := float64(e.rt.allocBytes - s.rt.allocBytes)
	add("runtime.alloc_bytes_per_op", frac(ab, n), "B", fmt.Sprintf("%.0f bytes %s", ab, perOp))
	ao := float64(e.rt.allocObjs - s.rt.allocObjs)
	add("runtime.allocs_per_op", frac(ao, n), "count", fmt.Sprintf("%.0f objects %s", ao, perOp))
	v, b = pct(ph.pauses, 0.99)
	add("runtime.gc_pause_p99_ms", v/1e6, "ms", b+" of GC stop-the-world pauses")
	for i := range out {
		if math.IsNaN(out[i].Value) {
			out[i].Value = 0
		}
	}
	return out
}

func newResult(stamp map[string]any, phases []*phase, checkErr error, ms []metric) *result {
	res := &result{Stamp: stamp, Correct: checkErr == nil, Metrics: ms, Ops: map[string][4]int{}}
	if checkErr != nil {
		res.CheckErr = checkErr.Error()
	}
	for _, ph := range phases {
		row := res.Ops["warm-up (untimed)"]
		for i, v := range ph.warm {
			row[i] += v
		}
		res.Ops["warm-up (untimed)"] = row
		res.Attempted += ph.warm[0]
		res.Failed += ph.warm[3]
		for k := opKind(0); k < numKinds; k++ {
			if ph.attempted[k] == 0 {
				continue
			}
			row := res.Ops[kindNames[k]]
			for i, v := range [4]int{ph.attempted[k], ph.committed[k], ph.aborted[k], ph.failed[k]} {
				row[i] += v
			}
			res.Ops[kindNames[k]] = row
			res.Attempted += ph.attempted[k]
			res.Failed += ph.failed[k]
		}
	}
	return res
}

// report prints the human-readable rows, writes the run record, and ends
// with the one-line JSON result.
func report(cfg config, res *result) error {
	fmt.Printf("# ops (open loop, then closed loop): %-10s %9s %9s %9s %9s\n", "type", "attempted", "committed", "aborted", "failed")
	printOps := func(rows map[string][4]int) {
		names := make([]string, 0, len(rows))
		for n := range rows {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			r := rows[n]
			fmt.Printf("#   %-30s %9d %9d %9d %9d\n", n, r[0], r[1], r[2], r[3])
		}
	}
	printOps(res.Ops)
	printOps(res.Closed)
	for _, m := range res.Metrics {
		fmt.Printf("%-32s %14.4f %-6s  (%s)\n", m.Name, m.Value, m.Unit, m.Base)
	}
	if !res.Correct {
		fmt.Printf("# RESULT CHECK FAILED: %s\n", res.CheckErr)
	}
	rec, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("run-%s-seed%d-trace%t.json", cfg.workload, cfg.seed, cfg.trace)
	if err := os.WriteFile(filepath.Join(cfg.out, name), rec, 0o644); err != nil {
		return err
	}
	// Workloads are sized so that no op fails; a failed op, measured or
	// not, is a broken run rather than a slow one.
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d ops failed (errors or timeouts; see the table above)", res.Failed, res.Attempted)
	}
	out := map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed}
	vals := map[string]any{}
	for _, m := range res.Metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			return fmt.Errorf("%s is %v: failed ops reached the percentile (%s)", m.Name, m.Value, m.Base)
		}
		vals[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	out["metrics"] = vals
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("result check failed: %s", res.CheckErr)
	}
	return nil
}

func printStamp(stamp map[string]any) {
	keys := make([]string, 0, len(stamp))
	for k := range stamp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# stamp %s=%v\n", k, stamp[k])
	}
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1e3) / 1e3
	}
	return out
}

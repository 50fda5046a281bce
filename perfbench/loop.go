package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/kv"
	"alohadb/internal/metrics"
	"alohadb/internal/scenario"
	"alohadb/internal/tstamp"
)

const (
	// In-flight ops must finish within drainTimeout after the last is due,
	// or the run is backlogged. An op still running after opTimeout has
	// failed; it is the longer of the two, so that an overloaded open loop
	// is reported as backlogged rather than as a burst of timeouts.
	drainTimeout = 15 * time.Second
	opTimeout    = 20 * time.Second
	scrapeEvery  = time.Second
	closedBatch  = 16 // the paper's RPC batching (§V-A2)
	// minWindowSamples is the fewest samples a sub-window of the measured
	// window may hold, so that its p99 has at least ten beyond it.
	minWindowSamples = 1000
)

// opResult is what one open-loop operation measured. Latencies are in ms
// from the op's due time; NaN where the metric does not apply, +Inf when
// the op failed.
type opResult struct {
	kind        opKind
	outcome     outcome
	late        float64 // dispatch minus due
	ack, commit float64 // writes: SubmitBatch returned / Await returned
	read        float64 // reads: GetCommitted returned
	submit      float64 // time inside SubmitBatch
	await       float64 // time inside Await
	routeNS     float64 // traced runs: mean Table.Route call over the op's keys
}

// snapshot is the state of every exported counter at one instant.
type snapshot struct {
	at    time.Time
	cpu   time.Duration
	rt    runtimeSample
	fams  map[string]metrics.Family
	epoch tstamp.Epoch
}

func takeSnapshot(c *core.Cluster) snapshot {
	s := snapshot{at: time.Now(), cpu: cpuTime(), rt: readRuntime(), epoch: c.CurrentEpoch(),
		fams: map[string]metrics.Family{}}
	for _, f := range c.Metrics() {
		s.fams[f.Name] = f
	}
	return s
}

func (s snapshot) counter(name string) float64 { return s.fams[name].Total() }

func (s snapshot) hist(name string) metrics.HistogramSnapshot { return s.fams[name].TotalHist() }

// phase is one measured open-loop window.
type phase struct {
	results   []opResult // measured ops, in due order
	reads     []readObs  // every read of the phase, warm-up included
	start     snapshot   // taken when the first measured op was due
	end       snapshot   // taken after the last measured op finished
	measured  int        // ops in the window
	window    time.Duration
	heapLive  uint64 // after a forced GC at the end of the window
	inflight  int64  // most ops in flight at once
	keys      int    // keys in all stores at the end of the window
	hotLen    int    // versions summed over the hot keys' chains then
	scrapes   []float64
	latestNS  []float64
	pauses    []float64 // ns, one per GC cycle in the window
	committed [numKinds]int
	aborted   [numKinds]int
	failed    [numKinds]int
	attempted [numKinds]int
	warm      [4]int // warm-up ops: attempted, committed, logic-aborted, failed
}

// completed is the number of measured ops that committed or aborted.
func (ph *phase) completed() int {
	n := 0
	for k := range ph.committed {
		n += ph.committed[k] + ph.aborted[k]
	}
	return n
}

// openLoop drives env at rate ops/s from a single dispatcher goroutine:
// warm ops first (untimed), then measured ops. Each op runs in its own
// goroutine; latency counts from its due time, so a stalled dispatcher
// shows as latency. spans is nil in untraced runs.
func openLoop(env *scenario.Env, wl workload, ops []op, warm int, rate float64, spans *spanLog) (*phase, error) {
	c := env.Cluster
	// Start from a collected heap, so that every run meets its GC cycles at
	// the same points of the load instead of inheriting the set-up's garbage.
	runtime.GC()
	ph := &phase{results: make([]opResult, len(ops)-warm), measured: len(ops) - warm}
	warmRes := make([]opResult, warm)
	readIdx := make([]int32, len(ops))
	nReads := 0
	for i := range ops {
		readIdx[i] = -1
		if ops[i].kind == kindRead {
			readIdx[i] = int32(nReads)
			nReads++
		}
	}
	ph.reads = make([]readObs, nReads)
	traced := spans != nil
	table := c.PlacementTable()
	hot := wl.hotKeys()

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() { // once-a-second metrics scrape (+ Latest probes when traced)
		defer bg.Done()
		t := time.NewTicker(scrapeEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			t0 := time.Now()
			_ = c.Metrics()
			t1 := time.Now()
			spans.add(0, 0, "bench.scrape", t0, t1)
			ph.scrapes = append(ph.scrapes, float64(t1.Sub(t0))/1e6)
			if !traced {
				continue
			}
			for _, k := range hot {
				store := c.Server(int(table.Route(k, tstamp.MaxEpoch))).Store()
				p0 := time.Now()
				store.Latest(k, tstamp.Max)
				p1 := time.Now()
				spans.add(0, 0, "bench.latest", p0, p1)
				ph.latestNS = append(ph.latestNS, float64(p1.Sub(p0)))
			}
		}
	}()

	var inflight atomic.Int64
	var wg sync.WaitGroup
	interval := time.Duration(float64(time.Second) / rate)
	begin := time.Now().Add(10 * time.Millisecond)
	for i := range ops {
		due := begin.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if i == warm {
			ph.start = takeSnapshot(c)
		}
		var res *opResult
		if i < warm {
			res = &warmRes[i]
		} else {
			res = &ph.results[i-warm]
		}
		n := inflight.Add(1)
		if n > ph.inflight {
			ph.inflight = n
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer inflight.Add(-1)
			var obs *readObs
			if readIdx[i] >= 0 {
				obs = &ph.reads[readIdx[i]]
			}
			execOp(c, wl, &ops[i], uint64(i+1), due, res, obs, spans)
		}(i)
	}
	lastDue := begin.Add(time.Duration(len(ops)-1) * interval)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Until(lastDue) + drainTimeout):
		close(stop)
		bg.Wait()
		return nil, fmt.Errorf("backlogged: %d ops still in flight %v after the last was due", inflight.Load(), drainTimeout)
	}
	// The ops are done with; let the forced GC below free them, so that
	// heap_live_mb counts the cluster and not the benchmark's inputs.
	ops = nil
	ph.end = takeSnapshot(c)
	ph.pauses = gcPauses(ph.start.rt.gcCycles)
	ph.window = ph.end.at.Sub(ph.start.at)
	for i := 0; i < c.NumServers(); i++ {
		ph.keys += c.Server(i).Store().Len()
	}
	for _, k := range hot {
		ph.hotLen += len(c.Server(int(table.Route(k, tstamp.MaxEpoch))).Store().View(k))
	}
	close(stop)
	bg.Wait()
	runtime.GC()
	ph.heapLive = readRuntime().heapLive
	for _, r := range warmRes {
		ph.warm[0]++
		ph.warm[1+int(r.outcome)]++
	}
	for _, r := range ph.results {
		ph.attempted[r.kind]++
		switch r.outcome {
		case outCommitted:
			ph.committed[r.kind]++
		case outAborted:
			ph.aborted[r.kind]++
		case outFailed:
			ph.failed[r.kind]++
		}
	}
	return ph, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// execOp runs one operation through the public entry points and records
// its timings, spans and bookkeeping. Traced runs (spans != nil) also time
// the placement lookups of the op's keys.
func execOp(c *core.Cluster, wl workload, o *op, id uint64, due time.Time, res *opResult, obs *readObs, spans *spanLog) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	root := spans.reserve()
	start := time.Now()
	*res = opResult{kind: o.kind, late: ms(start.Sub(due)),
		ack: math.NaN(), commit: math.NaN(), read: math.NaN(), submit: math.NaN(), await: math.NaN(), routeNS: math.NaN()}
	srv := c.Server(o.server)
	defer func() { spans.addWithID(root, id, 0, "bench.op", due, time.Now()) }()

	if o.kind == kindRead {
		v, found, err := srv.GetCommitted(ctx, o.key)
		t1 := time.Now()
		spans.add(id, root, "bench.read", start, t1)
		if err != nil {
			res.read, res.outcome = math.Inf(1), outFailed
			return
		}
		var n int64
		if found {
			var ok bool
			if n, ok = kv.DecodeInt64(v); !ok {
				n = -1 // checkReads rejects it
			}
		}
		*obs = readObs{Slot: o.slots[0], Value: n, Issued: wl.issued(o.slots[0])}
		res.read = ms(t1.Sub(due))
		return
	}

	if spans != nil {
		r0 := time.Now()
		for _, w := range o.txn.Writes {
			c.PlacementTable().Route(w.Key, tstamp.MaxEpoch)
		}
		r1 := time.Now()
		spans.add(id, root, "bench.route", r0, r1)
		res.routeNS = float64(r1.Sub(r0)) / float64(len(o.txn.Writes))
	}
	wl.issue(o)
	t0 := time.Now()
	results, handles, err := srv.SubmitBatch(ctx, []core.Txn{o.txn})
	t1 := time.Now()
	spans.add(id, root, "bench.submit", t0, t1)
	res.submit = ms(t1.Sub(t0))
	if err != nil {
		res.ack, res.commit, res.outcome = math.Inf(1), math.Inf(1), outFailed
		wl.settle(o, outFailed)
		return
	}
	res.ack = ms(t1.Sub(due))
	if results[0].Aborted {
		// A phase-1 abort (a NewOrder naming an unused item) is final at
		// the ack; a second round that could not reach every partition
		// leaves the effect unknown.
		st := outAborted
		if results[0].AbortIncomplete || results[0].RerouteExhausted() {
			st = outFailed
			res.commit = math.Inf(1)
		} else {
			res.commit = res.ack
		}
		res.outcome = st
		wl.settle(o, st)
		return
	}
	t2 := time.Now()
	committed, _, err := handles[0].Await(ctx)
	t3 := time.Now()
	spans.add(id, root, "bench.await", t2, t3)
	res.await = ms(t3.Sub(t2))
	switch {
	case err != nil:
		res.commit, res.outcome = math.Inf(1), outFailed
	case committed:
		res.commit, res.outcome = ms(t3.Sub(due)), outCommitted
	default:
		res.commit, res.outcome = ms(t3.Sub(due)), outAborted
	}
	wl.settle(o, res.outcome)
}

// closedResult is the closed-loop phase's throughput and accounting.
type closedResult struct {
	elapsed   time.Duration // submission plus drain
	committed int
	aborted   int
	failed    int
	attempted int
}

// closedLoop runs clients that each submit a batch of closedBatch writes,
// wait for the install ack, and submit the next, until dur has passed.
// Beside each client an awaiter takes the acked batches and awaits the
// outcomes of each batch's transactions in parallel. The phase ends once
// the commit frontier has passed every submitted write, the processors
// have drained and every outcome is known.
func closedLoop(env *scenario.Env, wl workload, seed int64, clients int, dur time.Duration) (closedResult, error) {
	c := env.Cluster
	type batch struct {
		ops     []op
		handles []*core.TxnHandle
		results []core.TxnResult
		err     error
	}
	var attempted, committed, aborted, failed atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	settle := func(o *op, st outcome) {
		wl.settle(o, st)
		attempted.Add(1)
		switch st {
		case outCommitted:
			committed.Add(1)
		case outAborted:
			aborted.Add(1)
		default:
			failed.Add(1)
		}
	}
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		acked := make(chan batch, 64) // the awaiter trails the client by at most a few epochs of batches
		wg.Add(2)
		go func(cl int) {
			defer wg.Done()
			defer close(acked)
			server := cl % numServers
			next := wl.writeGen(seed*7919+int64(cl)+1, server)
			for time.Now().Before(deadline) {
				b := batch{ops: make([]op, closedBatch)}
				txns := make([]core.Txn, closedBatch)
				for i := range b.ops {
					b.ops[i] = next()
					txns[i] = b.ops[i].txn
					wl.issue(&b.ops[i])
				}
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				b.results, b.handles, b.err = c.Server(server).SubmitBatch(ctx, txns)
				cancel()
				acked <- b
			}
		}(cl)
		go func() {
			defer wg.Done()
			for b := range acked {
				var bw sync.WaitGroup
				for i := range b.ops {
					switch {
					case b.err != nil:
						settle(&b.ops[i], outFailed)
					case b.results[i].Aborted:
						if b.results[i].AbortIncomplete || b.results[i].RerouteExhausted() {
							settle(&b.ops[i], outFailed)
						} else {
							settle(&b.ops[i], outAborted)
						}
					default:
						bw.Add(1)
						go func(i int) {
							defer bw.Done()
							ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
							defer cancel()
							ok, _, err := b.handles[i].Await(ctx)
							switch {
							case err != nil:
								settle(&b.ops[i], outFailed)
							case ok:
								settle(&b.ops[i], outCommitted)
							default:
								settle(&b.ops[i], outAborted)
							}
						}(i)
					}
				}
				bw.Wait()
			}
		}()
	}
	wg.Wait()
	if err := scenario.WaitCommitted(c, drainTimeout); err != nil {
		return closedResult{}, fmt.Errorf("closed loop: %w", err)
	}
	c.DrainProcessors()
	res := closedResult{elapsed: time.Since(start), attempted: int(attempted.Load()),
		committed: int(committed.Load()), aborted: int(aborted.Load()), failed: int(failed.Load())}
	return res, nil
}

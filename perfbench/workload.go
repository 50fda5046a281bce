package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"alohadb/internal/core"
	"alohadb/internal/functor"
	"alohadb/internal/kv"
	"alohadb/internal/obs"
	"alohadb/internal/placement"
	"alohadb/internal/scenario"
	"alohadb/internal/trace"
	"alohadb/internal/tstamp"
	"alohadb/internal/wal"
	"alohadb/internal/workload/tpcc"
	"alohadb/internal/workload/ycsb"
)

// Shared cluster shape of every workload (§V-A2): two servers, 25 ms
// epochs, and the simulated data-center mesh where a workload runs in
// memory.
const (
	numServers = 2
	epochLen   = 25 * time.Millisecond
	simLatency = 100 * time.Microsecond
	simJitter  = 40 * time.Microsecond
)

// opKind classifies operations for the failure accounting.
type opKind uint8

const (
	kindNewOrder opKind = iota
	kindPayment
	kindYCSB
	kindRead
	numKinds
)

var kindNames = [numKinds]string{"neworder", "payment", "ycsb", "read"}

// op is one generated operation. The program sees only txn (writes) or
// key (reads); the rest is the benchmark's bookkeeping for the checks.
type op struct {
	kind   opKind
	server int // coordinating server
	txn    core.Txn
	key    kv.Key  // read key
	slots  []int32 // tally slots: YCSB keys written, TPC-C district, read key
	amount int64   // Payment amount
	wh     int32   // Payment warehouse index
}

// outcome is an operation's final state. Logic aborts are outcomes, not
// failures; a failure (error or timeout) leaves the effect unknown.
type outcome uint8

const (
	outCommitted outcome = iota
	outAborted
	outFailed
)

// workload builds one cluster shape and generates its operations. The
// generators depend only on the seed; the tallies live on the value, so
// each cluster gets a fresh workload from its spec.
type workload interface {
	// build constructs, preloads and starts the cluster.
	build(tr *trace.Tracer, dir string) (*scenario.Env, error)
	// gen returns the open-loop operation generator for seed.
	gen(seed int64) func() op
	// writeGen returns a closed-loop generator of write operations
	// coordinated by server.
	writeGen(seed int64, server int) func() op
	// issue records a write as issued, before it is submitted.
	issue(o *op)
	// settle records a write's final outcome.
	settle(o *op, st outcome)
	// issued is the sum of increments issued to a read slot so far.
	issued(slot int32) int64
	// slotNames names the tally slots in check failures.
	slotNames() []string
	// hotKeys are the keys with the longest version chains.
	hotKeys() []kv.Key
	// check reads the final state back and compares it with the tallies.
	check(ctx context.Context, c *core.Cluster, reads []readObs) error
	// close releases files the workload opened for its cluster.
	close()
}

// spec is one named workload of BENCHMARK.json.
type spec struct {
	name   string
	rate   float64 // open-loop operations per second
	setups int     // set-ups per end-to-end run (at least one per round); setup_s is their median
	about  string  // one line for the run stamp
	make   func() workload
}

var specs = []spec{
	{
		name:   "tpcc-sim",
		rate:   3000,
		setups: 4,
		about:  "TPC-C 1 warehouse/server, NewOrder:Payment 50:50 (1% invalid-item aborts) at 2000 txn/s + 1000 D_YTD reads/s, sim mesh, unbounded history, watchdog+recorder+skew on",
		make:   newTPCC,
	},
	{
		name:   "ycsb-hot-tcp",
		rate:   4500,
		setups: 25,
		about:  "YCSB 10-key ADD, 2 partitions/txn, 10k keys/partition preloaded, CI=0.1, 2500 txn/s + 2000 hot reads/s, TCP loopback binary codec, retention 40 epochs, WAL appended buffered and flushed+fsynced once per epoch commit per server",
		make:   func() workload { return newYCSB(ycsbHotTCP) },
	},
	{
		name:   "read-mix",
		rate:   5000,
		setups: 9,
		about:  "90% GetCommitted (half hot, half cold) + 10% YCSB writes, 100k keys/partition, CI=0.01, 5000 ops/s, sim mesh, retention 40 epochs",
		make:   func() workload { return newYCSB(ycsbReadMix) },
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// atomicTally is the concurrent form of tally.
type atomicTally struct{ committed, indeterminate atomic.Int64 }

func (a *atomicTally) add(st outcome, n int64) {
	switch st {
	case outCommitted:
		a.committed.Add(n)
	case outFailed:
		a.indeterminate.Add(n)
	}
}

func (a *atomicTally) load() tally {
	return tally{Committed: a.committed.Load(), Indeterminate: a.indeterminate.Load()}
}

// readInt reads a counter at the last committed epoch from its owner.
func readInt(ctx context.Context, c *core.Cluster, k kv.Key) (int64, error) {
	owner := int(c.PlacementTable().Route(k, tstamp.MaxEpoch))
	v, found, err := c.Server(owner).GetCommitted(ctx, k)
	if err != nil {
		return 0, fmt.Errorf("read back %s: %w", k, err)
	}
	if !found {
		return 0, nil
	}
	n, ok := kv.DecodeInt64(v)
	if !ok {
		return 0, fmt.Errorf("read back %s: not an int64 counter", k)
	}
	return n, nil
}

// readInts reads keys back with a few parallel readers.
func readInts(ctx context.Context, c *core.Cluster, keys []kv.Key) ([]int64, error) {
	out := make([]int64, len(keys))
	const readers = 4
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; i < len(keys); i += readers {
				v, err := readInt(ctx, c, keys[i])
				if err != nil {
					errs[r] = err
					return
				}
				out[i] = v
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// --- TPC-C -------------------------------------------------------------------

// tpccReadFrac is the share of tpcc-sim operations that are D_YTD point
// reads (1000 of 3000 ops/s), so read latency is defined on every workload
// with enough reads per second for a steady p99.
const tpccReadFrac = 1.0 / 3

type tpccWL struct {
	cfg       tpcc.Config
	districts int
	payIssued []atomic.Int64 // per district, Payment amounts issued
	pay       []atomicTally  // per warehouse
	distPay   []atomicTally  // per district
	newOrder  []atomicTally  // per district
}

func newTPCC() workload {
	cfg := tpcc.Config{Servers: numServers, WarehousesPerServer: 1, AbortRate: 0.01}
	nd := cfg.Warehouses() * cfg.DistrictsPerWarehouse()
	return &tpccWL{
		cfg:       cfg,
		districts: cfg.DistrictsPerWarehouse(),
		payIssued: make([]atomic.Int64, nd),
		pay:       make([]atomicTally, cfg.Warehouses()),
		distPay:   make([]atomicTally, nd),
		newOrder:  make([]atomicTally, nd),
	}
}

func (t *tpccWL) build(tr *trace.Tracer, _ string) (*scenario.Env, error) {
	reg := functor.NewRegistry()
	tpcc.RegisterAlohaHandlers(reg)
	cfg := t.cfg
	return scenario.BuildEnv(scenario.EnvConfig{
		Servers:       numServers,
		NetLatency:    simLatency,
		NetJitter:     simJitter,
		EpochDuration: epochLen,
		Registry:      reg,
		// The deprecated Partitioner string-parses every TPC-C key; the
		// placement.route_ns probe times it.
		Router:         placement.NewStatic(numServers, core.Partitioner(cfg.Partitioner())),
		DependencyRule: cfg.DependencyRule(),
		Tracer:         tr,
		Skew:           &obs.SkewConfig{},
		Watchdog:       true,
		Timeseries:     true,
		Load: func(c *core.Cluster) error {
			return cfg.Load(func(p kv.Pair) error { return c.Load([]kv.Pair{p}) })
		},
	})
}

func (t *tpccWL) district(w, d int) int32 { return int32((w-1)*t.districts + d - 1) }

func (t *tpccWL) newOrderOp(g *tpcc.Generator, server int) op {
	no := g.NextNewOrder()
	return op{kind: kindNewOrder, server: server, txn: tpcc.AlohaNewOrder(t.cfg, no),
		slots: []int32{t.district(no.W, no.D)}}
}

func (t *tpccWL) paymentOp(g *tpcc.Generator, server int) op {
	p := g.NextPayment()
	return op{kind: kindPayment, server: server, txn: tpcc.AlohaPayment(p),
		slots: []int32{t.district(p.W, p.D)}, amount: p.Amount, wh: int32(p.W - 1)}
}

func (t *tpccWL) generators(seed int64) []*tpcc.Generator {
	gens := make([]*tpcc.Generator, numServers)
	for s := range gens {
		g, err := tpcc.NewGenerator(t.cfg, s, seed*1_000_003+int64(s))
		if err != nil {
			panic(err) // the fixed config is valid
		}
		gens[s] = g
	}
	return gens
}

func (t *tpccWL) gen(seed int64) func() op {
	gens := t.generators(seed)
	rng := rand.New(rand.NewSource(seed))
	warehouses := t.cfg.Warehouses()
	return func() op {
		if rng.Float64() < tpccReadFrac {
			w, d := 1+rng.Intn(warehouses), 1+rng.Intn(t.districts)
			return op{kind: kindRead, server: rng.Intn(numServers), key: tpcc.DistrictYTDKey(w, d),
				slots: []int32{t.district(w, d)}}
		}
		origin := rng.Intn(numServers)
		if rng.Intn(2) == 0 {
			return t.newOrderOp(gens[origin], origin)
		}
		return t.paymentOp(gens[origin], origin)
	}
}

func (t *tpccWL) writeGen(seed int64, server int) func() op {
	g := t.generators(seed)[server]
	rng := rand.New(rand.NewSource(seed))
	return func() op {
		if rng.Intn(2) == 0 {
			return t.newOrderOp(g, server)
		}
		return t.paymentOp(g, server)
	}
}

func (t *tpccWL) issue(o *op) {
	if o.kind == kindPayment {
		t.payIssued[o.slots[0]].Add(o.amount)
	}
}

func (t *tpccWL) settle(o *op, st outcome) {
	switch o.kind {
	case kindNewOrder:
		t.newOrder[o.slots[0]].add(st, 1)
	case kindPayment:
		t.pay[o.wh].add(st, o.amount)
		t.distPay[o.slots[0]].add(st, o.amount)
	}
}

func (t *tpccWL) issued(slot int32) int64 { return t.payIssued[slot].Load() }

func (t *tpccWL) slotNames() []string {
	names := make([]string, len(t.distPay))
	for i := range names {
		names[i] = string(tpcc.DistrictYTDKey(1+i/t.districts, 1+i%t.districts))
	}
	return names
}

func (t *tpccWL) hotKeys() []kv.Key {
	var keys []kv.Key
	for w := 1; w <= t.cfg.Warehouses(); w++ {
		keys = append(keys, tpcc.WarehouseYTDKey(w))
		for d := 1; d <= t.districts; d++ {
			keys = append(keys, tpcc.DistrictYTDKey(w, d))
		}
	}
	return keys
}

func (t *tpccWL) check(ctx context.Context, c *core.Cluster, reads []readObs) error {
	if err := checkReads(t.slotNames(), reads); err != nil {
		return err
	}
	var keys []kv.Key
	for w := 1; w <= t.cfg.Warehouses(); w++ {
		keys = append(keys, tpcc.WarehouseYTDKey(w))
	}
	for w := 1; w <= t.cfg.Warehouses(); w++ {
		for d := 1; d <= t.districts; d++ {
			keys = append(keys, tpcc.DistrictYTDKey(w, d))
		}
	}
	for w := 1; w <= t.cfg.Warehouses(); w++ {
		for d := 1; d <= t.districts; d++ {
			keys = append(keys, tpcc.NextOIDKey(w, d))
		}
	}
	vals, err := readInts(ctx, c, keys)
	if err != nil {
		return err
	}
	nw, nd := len(t.pay), len(t.distPay)
	final := tpccState{WYTD: vals[:nw], DYTD: vals[nw : nw+nd], NextOID: vals[nw+nd:]}
	// The loader zero-initialises W_YTD, D_YTD and the next order ids.
	initial := tpccState{WYTD: make([]int64, nw), DYTD: make([]int64, nd), NextOID: make([]int64, nd)}
	var tl tpccTally
	for i := range t.pay {
		tl.Pay = append(tl.Pay, t.pay[i].load())
	}
	for i := range t.distPay {
		tl.DistPay = append(tl.DistPay, t.distPay[i].load())
		tl.NewOrder = append(tl.NewOrder, t.newOrder[i].load())
	}
	return checkTPCC(tl, initial, final)
}

func (t *tpccWL) close() {}

// --- YCSB ------------------------------------------------------------------------

// ycsbShape configures the two YCSB-based workloads.
type ycsbShape struct {
	transport   string  // "mem" (simulated mesh) or "tcp" (loopback, binary codec)
	keys        int     // keys per partition
	ci          float64 // contention index: 1/ci hot keys per partition
	readFrac    float64 // share of operations that are GetCommitted reads
	hotReadFrac float64 // share of reads on hot keys; the rest are uniform over cold keys
	wal         bool
}

var (
	ycsbHotTCP  = ycsbShape{transport: "tcp", keys: 10_000, ci: 0.1, readFrac: 4.0 / 9, hotReadFrac: 1, wal: true}
	ycsbReadMix = ycsbShape{transport: "mem", keys: 100_000, ci: 0.01, readFrac: 0.9, hotReadFrac: 0.5}
)

// ycsbRetention is the version-retention horizon, in epochs.
const ycsbRetention = 40

type ycsbWL struct {
	shape     ycsbShape
	hot       int
	issuedCnt []atomic.Int64 // per key slot, increments issued
	counts    []atomicTally  // per key slot
	logs      []*wal.Log
	mu        sync.Mutex
}

func newYCSB(shape ycsbShape) *ycsbWL {
	n := numServers * shape.keys
	w := &ycsbWL{shape: shape, issuedCnt: make([]atomic.Int64, n), counts: make([]atomicTally, n)}
	w.hot = w.cfg(0).HotKeys()
	return w
}

func (y *ycsbWL) cfg(seed int64) ycsb.Config {
	return ycsb.Config{Partitions: numServers, KeysPerPartition: y.shape.keys,
		ContentionIndex: y.shape.ci, KeysPerTxn: 10, Distributed: true, Seed: seed}
}

func (y *ycsbWL) key(slot int32) kv.Key {
	return ycsb.Key(int(slot)/y.shape.keys, int(slot)%y.shape.keys)
}

// slotOf parses a "y:<partition>:<index>" key back to its tally slot.
func (y *ycsbWL) slotOf(k kv.Key) int32 {
	rest := strings.TrimPrefix(string(k), "y:")
	sep := strings.IndexByte(rest, ':')
	if sep < 0 {
		panic(fmt.Sprintf("perfbench: unexpected YCSB key %q", k))
	}
	p, err1 := strconv.Atoi(rest[:sep])
	i, err2 := strconv.Atoi(rest[sep+1:])
	if err1 != nil || err2 != nil {
		panic(fmt.Sprintf("perfbench: unexpected YCSB key %q", k))
	}
	return int32(p*y.shape.keys + i)
}

func (y *ycsbWL) build(tr *trace.Tracer, dir string) (*scenario.Env, error) {
	cfg := scenario.EnvConfig{
		Servers:       numServers,
		Transport:     y.shape.transport,
		EpochDuration: epochLen,
		Router:        placement.NewStatic(numServers, ycsb.Partitioner),
		Tracer:        tr,
		Retention:     ycsbRetention,
	}
	if y.shape.transport == "tcp" {
		cfg.WireCodec = "binary"
	} else {
		cfg.NetLatency, cfg.NetJitter = simLatency, simJitter
	}
	if y.shape.wal {
		cfg.DurabilityFactory = func(id int) (core.DurabilityHook, error) {
			l, err := wal.Open(filepath.Join(dir, "server-"+strconv.Itoa(id)+".wal"))
			if err != nil {
				return nil, err
			}
			y.mu.Lock()
			y.logs = append(y.logs, l)
			y.mu.Unlock()
			return l, nil
		}
	}
	// Every key is loaded as a zero counter, as a YCSB load phase does.
	// Without it, ycsb-hot-tcp's set-up is one WAL file creation and fsync
	// per server, under a millisecond, and setup_s would follow the disk's
	// fsync latency.
	zero := kv.EncodeInt64(0)
	cfg.Load = func(c *core.Cluster) error {
		for slot := range y.counts {
			if err := c.Load([]kv.Pair{{Key: y.key(int32(slot)), Value: zero}}); err != nil {
				return err
			}
		}
		return nil
	}
	return scenario.BuildEnv(cfg)
}

func (y *ycsbWL) writeOp(g *ycsb.Generator, server int) op {
	t := g.Next()
	slots := make([]int32, len(t.Keys))
	for i, k := range t.Keys {
		slots[i] = y.slotOf(k)
	}
	return op{kind: kindYCSB, server: server, txn: ycsb.Aloha(t), slots: slots}
}

func (y *ycsbWL) gen(seed int64) func() op {
	g, err := ycsb.NewGenerator(y.cfg(seed))
	if err != nil {
		panic(err) // the fixed config is valid
	}
	rng := rand.New(rand.NewSource(^seed))
	return func() op {
		server := rng.Intn(numServers)
		if rng.Float64() >= y.shape.readFrac {
			return y.writeOp(g, server)
		}
		p := rng.Intn(numServers)
		idx := rng.Intn(y.hot)
		if rng.Float64() >= y.shape.hotReadFrac {
			idx = y.hot + rng.Intn(y.shape.keys-y.hot)
		}
		slot := int32(p*y.shape.keys + idx)
		return op{kind: kindRead, server: server, key: y.key(slot), slots: []int32{slot}}
	}
}

func (y *ycsbWL) writeGen(seed int64, server int) func() op {
	g, err := ycsb.NewGenerator(y.cfg(seed))
	if err != nil {
		panic(err)
	}
	return func() op { return y.writeOp(g, server) }
}

func (y *ycsbWL) issue(o *op) {
	for _, s := range o.slots {
		y.issuedCnt[s].Add(1)
	}
}

func (y *ycsbWL) settle(o *op, st outcome) {
	for _, s := range o.slots {
		y.counts[s].add(st, 1)
	}
}

func (y *ycsbWL) issued(slot int32) int64 { return y.issuedCnt[slot].Load() }

func (y *ycsbWL) slotNames() []string {
	names := make([]string, len(y.counts))
	for i := range names {
		names[i] = string(y.key(int32(i)))
	}
	return names
}

func (y *ycsbWL) hotKeys() []kv.Key {
	var keys []kv.Key
	for p := 0; p < numServers; p++ {
		for i := 0; i < y.hot && i < 10; i++ {
			keys = append(keys, ycsb.Key(p, i))
		}
	}
	return keys
}

func (y *ycsbWL) check(ctx context.Context, c *core.Cluster, reads []readObs) error {
	names := y.slotNames()
	if err := checkReads(names, reads); err != nil {
		return err
	}
	keys := make([]kv.Key, len(names))
	for i, n := range names {
		keys[i] = kv.Key(n)
	}
	final, err := readInts(ctx, c, keys)
	if err != nil {
		return err
	}
	tallies := make([]tally, len(y.counts))
	for i := range y.counts {
		tallies[i] = y.counts[i].load()
	}
	return checkCounters(names, tallies, final)
}

func (y *ycsbWL) close() {
	y.mu.Lock()
	defer y.mu.Unlock()
	for _, l := range y.logs {
		_ = l.Close() // the WAL is scratch; the run deletes it
	}
	y.logs = nil
}

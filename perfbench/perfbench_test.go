package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	vals := make([]float64, 0, 103)
	for i := 1; i <= 98; i++ {
		vals = append(vals, float64(i))
	}
	vals = append(vals, math.Inf(1), math.Inf(1))           // two failed ops
	vals = append(vals, math.NaN(), math.NaN(), math.NaN()) // ops the metric does not apply to
	if p, n := percentile(vals, 0.5); p != 50 || n != 100 {
		t.Fatalf("p50 = %v over %d samples, want 50 over 100", p, n)
	}
	if p, _ := percentile(vals, 0.98); p != 98 {
		t.Fatalf("p98 = %v, want 98", p)
	}
	if p, _ := percentile(vals, 0.99); !math.IsInf(p, 1) {
		t.Fatalf("p99 = %v, want +Inf: a failure must miss every limit", p)
	}
	if p, n := percentile([]float64{math.NaN()}, 0.5); !math.IsNaN(p) || n != 0 {
		t.Fatalf("empty percentile = %v over %d samples, want NaN over 0", p, n)
	}
}

func TestLatencySmoothsStallsButNotFailures(t *testing.T) {
	// Five sub-windows of commit latencies, each a little slower than the
	// last, plus reads that the commit metric skips.
	window := func(spoil func(j, i int) float64) *phase {
		ph := &phase{}
		for j := 0; j < 5; j++ {
			for i := 1; i <= minWindowSamples; i++ {
				ph.results = append(ph.results, opResult{commit: spoil(j, i)})
			}
		}
		ph.results = append(ph.results, opResult{commit: math.NaN()}, opResult{commit: math.NaN()})
		return ph
	}
	// A stall slows half of window 2. The tail is the median of the
	// sub-window p99s and ignores it; the median is pooled and moves little.
	stalled := window(func(j, i int) float64 {
		if j == 2 && i > minWindowSamples/2 {
			return 1e6
		}
		return float64(i + j)
	})
	if m := latency("p99", []*phase{stalled}, commitOf, 0.99); m.Value != 993 || !strings.Contains(m.Base, "5 sub-windows") {
		t.Fatalf("p99 = %v (%s), want 993 over 5 sub-windows", m.Value, m.Base)
	}
	if m := latency("p50", []*phase{stalled}, commitOf, 0.5); m.Value != 502 || !strings.Contains(m.Base, "5000 samples") {
		t.Fatalf("p50 = %v (%s), want 502 over 5000 samples", m.Value, m.Base)
	}
	short := &phase{results: stalled.results[:2*minWindowSamples-1]}
	if m := latency("p99", []*phase{short}, commitOf, 0.99); m.Value != 991 || !strings.Contains(m.Base, "1 sub-windows") {
		t.Fatalf("p99 of too few samples for two parts = %v (%s), want 991 over one part", m.Value, m.Base)
	}
	// Failures confined to one sub-window, fewer than its 1%, still fail
	// every percentile of the metric.
	failed := window(func(j, i int) float64 {
		if j == 2 && i > minWindowSamples-3 {
			return math.Inf(1)
		}
		return float64(i + j)
	})
	for _, q := range []float64{0.5, 0.99} {
		if m := latency("q", []*phase{stalled, failed}, commitOf, q); !math.IsInf(m.Value, 1) {
			t.Fatalf("q=%v with failures in one sub-window = %v (%s), want +Inf", q, m.Value, m.Base)
		}
	}
}

func TestSelfTimeOnSyntheticTree(t *testing.T) {
	at := func(id, parent uint64, name string, start, end int64) span {
		return span{Source: "bench", Op: 1, ID: id, Parent: parent, Name: name, Start: start, End: end}
	}
	spans := []span{
		at(1, 0, "root", 0, 100),
		at(2, 1, "a", 10, 30),  // overlaps b
		at(3, 1, "b", 20, 50),  // union of a and b covers [10,50]
		at(4, 1, "c", 90, 120), // clipped to the parent's end: covers [90,100]
		at(5, 2, "leaf", 12, 15),
		// Same ids in another op must not be taken as children of op 1.
		{Source: "bench", Op: 2, ID: 6, Parent: 1, Name: "other", Start: 0, End: 100},
		// Nor spans of the other source.
		{Source: "program", Op: 1, ID: 7, Parent: 1, Name: "prog", Start: 0, End: 100},
	}
	want := map[string]time.Duration{
		"root":  50, // 100 - (40 + 10)
		"a":     17, // 20 - 3
		"b":     30,
		"c":     30,
		"leaf":  3,
		"other": 100,
		"prog":  100,
	}
	got := map[string]time.Duration{}
	for _, st := range selfTimes(spans) {
		got[st.Name] = st.Self
		if st.Count != 1 {
			t.Errorf("%s counted %d times", st.Name, st.Count)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
	if v, n := meanSelf(selfTimes(spans), "bench", "a"); n != 1 || v != 17e-6 {
		t.Fatalf("meanSelf(a) = %v ms over %d, want 17e-6 over 1", v, n)
	}
}

func TestOnDemandComputesBySpanParent(t *testing.T) {
	prog := func(op, id, parent uint64, name string) span {
		return span{Source: "program", Op: op, ID: id, Parent: parent, Name: name}
	}
	spans := []span{
		prog(1, 10, 0, "functor.process"),
		prog(1, 11, 10, "functor.compute"), // by a processor
		prog(2, 20, 0, "txn.read"),
		prog(2, 21, 20, "be.read"),
		prog(2, 22, 21, "functor.compute"), // on demand, for a read
		prog(3, 30, 99, "functor.compute"), // parent evicted from the ring: not counted
		prog(4, 40, 0, "functor.process"),
		prog(4, 41, 40, "functor.compute"), // by a processor
		prog(4, 42, 41, "functor.compute"), // a chain resolved inside that compute: not on demand
		prog(5, 50, 0, "txn.read"),
		prog(5, 51, 50, "functor.compute"), // on demand, straight under the read
		{Source: "bench", Op: 2, ID: 11, Parent: 20, Name: "functor.compute"},
	}
	if od, n := onDemandComputes(spans); od != 2 || n != 5 {
		t.Fatalf("onDemandComputes = %d of %d, want 2 of 5", od, n)
	}
}

func TestCheckCountersRejectsCorruptTally(t *testing.T) {
	names := []string{"k0", "k1", "k2"}
	tallies := []tally{{Committed: 5}, {Committed: 0}, {Committed: 3, Indeterminate: 2}}
	final := []int64{5, 0, 4}
	if err := checkCounters(names, tallies, final); err != nil {
		t.Fatalf("consistent state rejected: %v", err)
	}
	corrupt := append([]tally(nil), tallies...)
	corrupt[0].Committed++
	if err := checkCounters(names, corrupt, final); err == nil || !strings.Contains(err.Error(), "k0") {
		t.Fatalf("corrupted tally accepted or misreported: %v", err)
	}
	if err := checkCounters(names, tallies, []int64{5, 0, 6}); err == nil {
		t.Fatal("value beyond the indeterminate slack accepted")
	}
}

func TestCheckReadsRejectsUnissuedValue(t *testing.T) {
	names := []string{"k0", "k1"}
	reads := []readObs{{Slot: 0, Value: 3, Issued: 3}, {Slot: 1, Value: 0, Issued: 7}}
	if err := checkReads(names, reads); err != nil {
		t.Fatalf("consistent reads rejected: %v", err)
	}
	reads[1].Issued = -1 // the tally lost an issued increment
	if err := checkReads(names, reads); err == nil {
		t.Fatal("read above the issued increments accepted")
	}
}

func TestCheckTPCCRejectsCorruptTally(t *testing.T) {
	// Two warehouses with two districts each.
	tl := tpccTally{
		Pay:      []tally{{Committed: 30}, {Committed: 7}},
		DistPay:  []tally{{Committed: 10}, {Committed: 20}, {Committed: 7}, {}},
		NewOrder: []tally{{Committed: 4}, {Committed: 1}, {}, {Committed: 2, Indeterminate: 1}},
	}
	initial := tpccState{WYTD: []int64{100, 0}, DYTD: []int64{0, 0, 0, 0}, NextOID: []int64{0, 0, 0, 0}}
	final := tpccState{WYTD: []int64{130, 7}, DYTD: []int64{10, 20, 7, 0}, NextOID: []int64{4, 1, 0, 3}}
	if err := checkTPCC(tl, initial, final); err != nil {
		t.Fatalf("consistent state rejected: %v", err)
	}
	corruptions := map[string]func(*tpccTally, *tpccState){
		"payment tally":  func(tl *tpccTally, _ *tpccState) { tl.Pay[1].Committed = 8 },
		"district tally": func(tl *tpccTally, _ *tpccState) { tl.DistPay[0].Committed = 11 },
		"neworder tally": func(tl *tpccTally, _ *tpccState) { tl.NewOrder[1].Committed = 2 },
		"W_YTD != sum D_YTD": func(tl *tpccTally, f *tpccState) {
			// Shift a payment between districts in the tally and the
			// state alike, then break only the warehouse sum.
			f.WYTD[0] = 131
			tl.Pay[0].Committed = 31
		},
	}
	for name, corrupt := range corruptions {
		tl2 := tpccTally{
			Pay:      append([]tally(nil), tl.Pay...),
			DistPay:  append([]tally(nil), tl.DistPay...),
			NewOrder: append([]tally(nil), tl.NewOrder...),
		}
		f2 := tpccState{WYTD: append([]int64(nil), final.WYTD...), DYTD: final.DYTD, NextOID: final.NextOID}
		corrupt(&tl2, &f2)
		if err := checkTPCC(tl2, initial, f2); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
}

func TestSameSeedSameOps(t *testing.T) {
	const n = 500
	for _, sp := range specs {
		sequence := func(seed int64) []op {
			next := sp.make().gen(seed)
			ops := make([]op, n)
			for i := range ops {
				ops[i] = next()
			}
			return ops
		}
		a, b := sequence(42), sequence(42)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 42 generated two different sequences", sp.name)
		}
		if reflect.DeepEqual(a, sequence(43)) {
			t.Errorf("%s: seeds 42 and 43 generated the same sequence", sp.name)
		}
		kinds := map[opKind]int{}
		for _, o := range a {
			kinds[o.kind]++
		}
		if kinds[kindRead] == 0 || kinds[kindRead] == n {
			t.Errorf("%s: %d of %d ops are reads, want a mix", sp.name, kinds[kindRead], n)
		}
	}
}

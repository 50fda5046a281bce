package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"alohadb/internal/trace"
)

// span is one timed interval: either recorded by the benchmark around a
// call into a layer's public entry point, or converted from the program's
// own tracer. Spans of one operation share Op; Parent links a span to the
// span that caused it (zero for a root).
type span struct {
	Source string `json:"source"` // "bench" or "program"
	Op     uint64 `json:"op"`     // operation id (bench) or trace id (program)
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // Unix nanoseconds
	End    int64  `json:"end_ns"`
}

// spanLog keeps every benchmark span in memory until the run ends. A nil
// *spanLog records nothing, so untraced runs pay one nil check per call.
type spanLog struct {
	mu    sync.Mutex
	spans []span
	next  uint64
}

func newSpanLog(capacity int) *spanLog { return &spanLog{spans: make([]span, 0, capacity)} }

// add records one finished span and returns its id (0 when disabled).
func (l *spanLog) add(op, parent uint64, name string, start, end time.Time) uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	l.next++
	id := l.next
	l.spans = append(l.spans, span{Source: "bench", Op: op, ID: id, Parent: parent, Name: name,
		Start: start.UnixNano(), End: end.UnixNano()})
	l.mu.Unlock()
	return id
}

// reserve hands out an id for a parent span recorded after its children.
func (l *spanLog) reserve() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

// addWithID records a span under an id obtained from reserve.
func (l *spanLog) addWithID(id, op, parent uint64, name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{Source: "bench", Op: op, ID: id, Parent: parent, Name: name,
		Start: start.UnixNano(), End: end.UnixNano()})
	l.mu.Unlock()
}

func (l *spanLog) all() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// programSpans converts the program tracer's retained traces. Span ids are
// random 64-bit values, unique within a trace; the trace id becomes Op.
func programSpans(traces []trace.Trace) []span {
	var out []span
	for _, tr := range traces {
		for _, sd := range tr.Spans {
			out = append(out, span{Source: "program", Op: uint64(tr.ID), ID: uint64(sd.Span),
				Parent: uint64(sd.Parent), Name: sd.Name, Start: sd.Start, End: sd.End()})
		}
	}
	return out
}

// writeSpans writes spans as gzipped JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// selfStat aggregates the self time of every span with one name.
type selfStat struct {
	Source string
	Name   string
	Count  int
	Total  time.Duration // summed duration
	Self   time.Duration // summed self time
}

// selfTimes computes, for every span, its duration minus the part of its
// interval covered by the union of its children's intervals, and sums the
// result per (source, name). Spans whose parent is missing (evicted from
// the program's ring, or recorded in another tree) count as roots.
func selfTimes(spans []span) []selfStat {
	type key struct {
		src      string
		op, span uint64
	}
	children := make(map[key][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			k := key{s.Source, s.Op, s.Parent}
			children[k] = append(children[k], i)
		}
	}
	agg := map[[2]string]*selfStat{}
	var ivs [][2]int64
	for _, s := range spans {
		ivs = ivs[:0]
		for _, ci := range children[key{s.Source, s.Op, s.ID}] {
			c := spans[ci]
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		self := (s.End - s.Start) - covered(ivs)
		if self < 0 {
			self = 0
		}
		k := [2]string{s.Source, s.Name}
		st := agg[k]
		if st == nil {
			st = &selfStat{Source: s.Source, Name: s.Name}
			agg[k] = st
		}
		st.Count++
		st.Total += time.Duration(s.End - s.Start)
		st.Self += time.Duration(self)
	}
	out := make([]selfStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		return out[i].Self > out[j].Self
	})
	return out
}

// covered returns the length of the union of the intervals.
func covered(ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	lo, hi := ivs[0][0], ivs[0][1]
	for _, iv := range ivs[1:] {
		if iv[0] > hi {
			total += hi - lo
			lo, hi = iv[0], iv[1]
			continue
		}
		hi = max(hi, iv[1])
	}
	return total + hi - lo
}

// readSpans are the program's spans under which a functor.compute runs on
// demand, for a read.
var readSpans = map[string]bool{"txn.read": true, "be.read": true, "be.read.batch": true}

// onDemandComputes counts the program's functor.compute spans whose parent
// span is known: all of them, and those computed on demand for a read
// (parent a read span). Computes under a processor's functor.process, and
// chains resolved inside another compute, are not on demand.
func onDemandComputes(spans []span) (onDemand, total int) {
	names := map[[2]uint64]string{}
	for _, s := range spans {
		if s.Source == "program" {
			names[[2]uint64{s.Op, s.ID}] = s.Name
		}
	}
	for _, s := range spans {
		if s.Source != "program" || s.Name != "functor.compute" {
			continue
		}
		parent, ok := names[[2]uint64{s.Op, s.Parent}]
		if !ok {
			continue
		}
		total++
		if readSpans[parent] {
			onDemand++
		}
	}
	return onDemand, total
}

// layerOf names the module a span's self time is charged to.
func layerOf(name string) string {
	switch name {
	case "bench.op":
		return "loadgen"
	case "bench.gen":
		return "workload"
	case "bench.route":
		return "placement"
	case "bench.submit", "txn.submit", "txn.install":
		return "core/coordinator"
	case "bench.await", "txn.await":
		return "core/processor"
	case "bench.read", "txn.read":
		return "core/read"
	case "bench.latest":
		return "mvstore"
	case "bench.scrape":
		return "obs"
	case "be.install", "be.deferred", "deferred.apply":
		return "core/backend"
	case "functor.process", "functor.compute":
		return "functor"
	case "functor.ensure", "read.remote", "read.remote.batch", "ensure.remote.batch",
		"be.read", "be.read.batch", "be.ensure", "be.ensure.batch":
		return "core/combiner"
	case "visibility.wait":
		return "visibility"
	case "epoch.switch", "epoch.ackwait", "epoch.commit":
		return "epoch"
	case "wal.commit":
		return "wal"
	default:
		return "other"
	}
}

// printSelfTable writes the self-time table per span name, then the same
// time summed per layer. Shares are of the summed self time within one
// source, so the bench rows add up to the client-visible time and the
// program rows to the sampled in-program time.
func printSelfTable(w io.Writer, stats []selfStat) {
	totals := map[string]time.Duration{}
	layers := map[[2]string]time.Duration{}
	for _, st := range stats {
		totals[st.Source] += st.Self
		layers[[2]string{st.Source, layerOf(st.Name)}] += st.Self
	}
	share := func(source string, d time.Duration) float64 {
		return 100 * float64(d) / float64(max(totals[source], 1))
	}
	fmt.Fprintf(w, "%-8s %-20s %-18s %8s %12s %12s %10s %7s\n",
		"source", "span", "layer", "count", "total_ms", "self_ms", "self_us/1", "share")
	for _, st := range stats {
		fmt.Fprintf(w, "%-8s %-20s %-18s %8d %12.1f %12.1f %10.1f %6.1f%%\n",
			st.Source, st.Name, layerOf(st.Name), st.Count,
			float64(st.Total)/1e6, float64(st.Self)/1e6,
			float64(st.Self)/1e3/float64(st.Count), share(st.Source, st.Self))
	}
	keys := make([][2]string, 0, len(layers))
	for k := range layers {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return layers[keys[i]] > layers[keys[j]]
	})
	fmt.Fprintf(w, "%-8s %-18s %12s %7s\n", "source", "layer", "self_ms", "share")
	for _, k := range keys {
		fmt.Fprintf(w, "%-8s %-18s %12.1f %6.1f%%\n", k[0], k[1], float64(layers[k])/1e6, share(k[0], layers[k]))
	}
}

// meanSelf returns the mean self time of the named spans, in ms, and how
// many spans it averages over.
func meanSelf(stats []selfStat, source, name string) (float64, int) {
	for _, st := range stats {
		if st.Source == source && st.Name == name && st.Count > 0 {
			return float64(st.Self) / 1e6 / float64(st.Count), st.Count
		}
	}
	return 0, 0
}

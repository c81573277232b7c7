package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"os"
	"runtime"
	"runtime/metrics"
	"time"
)

// metricDef is one metric this benchmark reports, with its unit.
type metricDef struct{ Name, Unit string }

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// workloads and the metrics it reports, end-to-end ones from an untraced
// run and per-layer ones from a traced run.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

// spec and unitOf are loaded from BENCHMARK.json by loadSpec.
var (
	spec   benchSpec
	unitOf map[string]string
)

// loadSpec reads the metric names and units from BENCHMARK.json at the
// repository root, the directory the benchmark runs in.
func loadSpec() error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	unitOf = map[string]string{}
	for _, d := range append(append([]metricDef{}, spec.EndToEnd...), spec.PerLayer...) {
		unitOf[d.Name] = d.Unit
	}
	return nil
}

// report collects one run's outcome: what was attempted and failed, the
// first output check that failed, the metrics, and human-readable notes
// (sample counts, host) printed before the result line.
type report struct {
	attempted, failed int64
	checkErr          error
	metrics           map[string]float64
	notes             []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) {
	if _, ok := unitOf[name]; !ok {
		panic("perfbench: metric " + name + " is not in BENCHMARK.json")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = v
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed output check; the first one is kept for the log.
func (r *report) fail(err error) {
	if r.checkErr == nil {
		r.checkErr = err
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nBins is the bin count of a hist: exact bins below 128ns, then 64 bins
// an octave (about 1.1% wide) up to 2^41ns.
const nBins = 128 + 34*64

func bin(ns int64) int {
	if ns < 128 {
		return int(max(ns, 0))
	}
	e := bits.Len64(uint64(ns)) - 1
	i := 128 + (e-7)*64 + int(uint64(ns)>>(e-6)) - 64
	return min(i, nBins-1)
}

// binRange is the range [lo, hi) of ns values bin i holds.
func binRange(i int) (lo, hi float64) {
	if i < 128 {
		return float64(i), float64(i + 1)
	}
	e, m := 7+(i-128)/64, uint64(64+(i-128)%64)
	return float64(m << (e - 6)), float64((m + 1) << (e - 6))
}

// hist is a latency histogram. Recording into one allocates nothing, so
// the benchmark's own bookkeeping adds no garbage to the process it
// measures.
type hist struct {
	bins [nBins]uint32
	n    int64
	sum  int64 // ns
}

func (h *hist) add(ns int64) {
	h.bins[bin(ns)]++
	h.n++
	h.sum += ns
}

func (h *hist) merge(o *hist) {
	for i, c := range o.bins {
		h.bins[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *hist) meanUS() float64 { return ratio(float64(h.sum), float64(h.n)) / 1e3 }

// quantileUS is the nearest-rank q-quantile in µs, placed within its bin
// by its rank among the bin's samples.
func (h *hist) quantileUS(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(h.n))), 1)
	var cum int64
	for i, c := range h.bins {
		if cum+int64(c) >= rank {
			lo, hi := binRange(i)
			return (lo + (hi-lo)*(float64(rank-cum)-0.5)/float64(c)) / 1e3
		}
		cum += int64(c)
	}
	return 0 // unreachable: the bins sum to n
}

// classHists holds one phase's latencies, a hist per request class.
type classHists [nClass]hist

func (h *classHists) merge(o *classHists) {
	for c := range h {
		h[c].merge(&o[c])
	}
}

func (h *classHists) count() int64 {
	var n int64
	for c := range h {
		n += h[c].n
	}
	return n
}

// meanUS is the mean latency over every class.
func (h *classHists) meanUS() float64 {
	var n, sum int64
	for c := range h {
		n += h[c].n
		sum += h[c].sum
	}
	return ratio(float64(sum), float64(n)) / 1e3
}

// hostSample is the host's steal and total CPU ticks at one moment.
type hostSample struct{ steal, ticks uint64 }

// stealShare is the share of the CPU time between a and b that the
// hypervisor stole from this machine's vCPUs.
func stealShare(a, b hostSample) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.ticks-a.ticks))
}

// setClosedLoop reports ops_per_s and every class's p50 over the whole
// of a closed-loop phase that answered lat.count() requests in elapsed,
// during which the hypervisor stole the share steal of the host's CPU
// time. Nothing measured is left out, so a GC cycle or a lock convoy that
// slows part of the phase counts in full.
//
// Both are taken in the time the vCPUs were given: ops_per_s divides by
// elapsed*(1-steal), and each p50 is scaled by (1-steal). The closed loop
// keeps both vCPUs busy, so a vCPU that is stolen from stalls the load
// for as long as the steal lasts. With no steal the figures are the raw
// ones, which are printed too. On a 2-vCPU virtual machine, two sets of
// ten runs of one commit saw steal of 0.3-23% and 7-28%; between them
// kv-txn's median ops_per_s moved by 18% raw and 9% corrected, and its
// txn_p50_us by 16% raw and 5% corrected, and the second set's spread
// (interquartile range over median) of ops_per_s was 0.18 raw and 0.05
// corrected. Changes in the host's speed that are not steal stay in the
// figures: lib-bank's median ops_per_s moved by 27% between two sets of
// ten runs with under 1% steal in either.
//
// Each class's mean, p90 and p99 are printed with their sample counts but
// are not metrics: the p90's spread over ten runs reached 0.56 on kv-txn,
// past the 0.25 cap on a metric's bound.
func (r *report) setClosedLoop(lat *classHists, elapsed time.Duration, steal float64) {
	n := lat.count()
	avail := 1 - steal
	r.set("ops_per_s", ratio(float64(n), elapsed.Seconds()*avail))
	r.note("closed loop: %d requests in %.3fs, %.0f ops/s; %.2f%% of the host's CPU time stolen", n, elapsed.Seconds(),
		ratio(float64(n), elapsed.Seconds()), 100*steal)
	for c := range nClass {
		h := &lat[c]
		name := classNames[c]
		r.set(name+"_p50_us", h.quantileUS(0.50)*avail)
		r.note("%s latency: n=%d mean %.2fus p50 %.2fus p90 %.2fus p99 %.2fus (%d samples beyond the p99)",
			name, h.n, h.meanUS(), h.quantileUS(0.5), h.quantileUS(0.9), h.quantileUS(0.99), h.n-int64(math.Ceil(0.99*float64(h.n))))
	}
}

// rtSample is a snapshot of the Go runtime counters the gc.* metrics and
// the allocation counts are deltas of.
type rtSample struct {
	gcCPU, assistCPU, totalCPU float64
	allocBytes, allocObjects   uint64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/gc/mark/assist:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		gcCPU: s[0].Value.Float64(), assistCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64(),
		allocBytes: s[3].Value.Uint64(), allocObjects: s[4].Value.Uint64(),
	}
}

func (s rtSample) sub(t rtSample) rtSample {
	return rtSample{
		gcCPU: s.gcCPU - t.gcCPU, assistCPU: s.assistCPU - t.assistCPU, totalCPU: s.totalCPU - t.totalCPU,
		allocBytes: s.allocBytes - t.allocBytes, allocObjects: s.allocObjects - t.allocObjects,
	}
}

// setGC reports the process-wide GC share of CPU and bytes allocated per
// operation over a phase that completed ops operations.
func (r *report) setGC(d rtSample, ops int64) {
	r.set("gc.cpu_share", ratio(d.gcCPU, d.totalCPU))
	r.set("gc.assist_share", ratio(d.assistCPU, d.totalCPU))
	r.set("gc.alloc_bytes_per_op", ratio(float64(d.allocBytes), float64(ops)))
}

// liveHeapMB forces a collection and returns the heap still in use.
// Callers keep the store reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

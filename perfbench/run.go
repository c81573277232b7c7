package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/loghist"
	"repro/internal/server"
	"repro/stm"
	"repro/stm/mvstm"
)

// loadWorkers is the number of load goroutines (and, served, of
// connections) every workload uses. main refuses to run on fewer cores.
const loadWorkers = 2

// warmup runs before any measured phase, so caches fill and lazy
// set-up finishes first; it is not part of --seconds.
const warmup = 500 * time.Millisecond

// An untraced run builds its store at least minSetups times and until
// setupBudget is spent, at most maxSetups times; setup_s is the median
// build time (see setSetup), and the last store built is the one
// measured. A traced run builds it once.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 1500 * time.Millisecond
)

func moreSetups(times []float64, traced bool) bool {
	if traced {
		return len(times) < 1
	}
	spent := 0.0
	for _, t := range times {
		spent += t
	}
	return len(times) < minSetups || (len(times) < maxSetups && spent < setupBudget.Seconds())
}

// setSetup reports setup_s from the build times of one run: their
// median, taken in the time the vCPUs were given as ops_per_s is (see
// setClosedLoop), with steal the hypervisor's share of the host's CPU
// time over the builds. The builds keep both vCPUs busy (the preload and
// the garbage collector), so steal stretches them as it does the load.
func (r *report) setSetup(times []float64, steal float64, what string) {
	r.set("setup_s", median(times)*(1-steal))
	r.note("setup: %d builds of %s, seconds %.4f; %.2f%% of the host's CPU time stolen", len(times), what, times, 100*steal)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func streams(wl string, seed int64) []*stream {
	out := make([]*stream, loadWorkers)
	for w := range out {
		out[w] = newStream(wl, seed, w)
	}
	return out
}

// engineSnap is a snapshot of both engines' counters and latency
// histograms; a served workload runs on one of them, lib-bank on stm.
type engineSnap struct {
	stm              stm.Stats
	mv               mvstm.Stats
	stmLat, stmTries loghist.Snapshot
	mvLat            loghist.Snapshot
}

func readEngines() engineSnap {
	sl, sa := stm.LatencyHists()
	ml, _ := mvstm.LatencyHists()
	return engineSnap{stm: stm.ReadStats(), mv: mvstm.ReadStats(), stmLat: sl.Snapshot(), stmTries: sa.Snapshot(), mvLat: ml.Snapshot()}
}

// setLatencySampling switches both engines' commit-latency sampling on
// (every call) or off; traced phases only.
func setLatencySampling(on bool) {
	every := 0
	if on {
		every = 1
	}
	stm.SetLatencySampling(every)
	mvstm.SetLatencySampling(every)
}

func per1k(n, commits uint64) float64 { return ratio(float64(n)*1000, float64(commits)) }

// setEngines reports the engine counters accumulated between a and b.
func (r *report) setEngines(a, b engineSnap) {
	s := b.stm.Sub(a.stm)
	r.set("stm.commit_ratio", ratio(float64(s.Commits), float64(s.Commits+s.Aborts)))
	for reason, n := range s.AbortReasons.Map() {
		r.set("stm.abort."+reason, per1k(n, s.Commits))
	}
	r.set("stm.extensions_per_commit", ratio(float64(s.Extensions), float64(s.Commits)))
	r.set("stm.clock_increments_per_commit", ratio(float64(s.ClockIncrements), float64(s.Commits-s.ROCommits)))
	tries := b.stmTries.Sub(a.stmTries)
	lat := b.stmLat.Sub(a.stmLat)
	r.set("stm.attempts_p99", logQuantile(tries, 0.99, false))
	r.set("stm.commit_p50_us", logQuantile(lat, 0.5, true))

	m := b.mv.Sub(a.mv)
	r.set("mvstm.commit_ratio", ratio(float64(m.Commits), float64(m.Commits+m.Aborts)))
	for reason, n := range m.AbortReasons.Map() {
		r.set("mvstm.abort."+reason, per1k(n, m.Commits))
	}
	r.set("mvstm.walk_steps_per_read", m.MeanChainWalk())
	r.set("mvstm.versions_appended_per_commit", ratio(float64(m.VersionsAppended), float64(m.Commits-m.ROCommits)))
	r.set("mvstm.versions_pooled_share", ratio(float64(m.VersionsPooled), float64(m.VersionsAppended)))
	r.set("mvstm.gc_sweeps", per1k(m.GCSweeps, m.Commits))
	r.set("mvstm.gc_skips", per1k(m.GCSkips, m.Commits))
	hwm := 0.0
	if m.Commits > 0 {
		hwm = float64(m.ChainHWM)
	}
	r.set("mvstm.chain_hwm", hwm)
	mlat := b.mvLat.Sub(a.mvLat)
	r.set("mvstm.commit_p50_us", logQuantile(mlat, 0.5, true))
}

// logQuantile is the nearest-rank q-quantile of an engine histogram,
// whose bucket i > 0 holds the values [2^(i-1), 2^i). With interpolate it
// is placed within its bucket by its rank among the bucket's samples, so
// a latency moves with the data instead of jumping between bucket bounds;
// without, it is the bucket's lower bound, exact for small integer counts
// such as attempts.
func logQuantile(s loghist.Snapshot, q float64, interpolate bool) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := max(uint64(math.Ceil(q*float64(s.Count))), 1)
	var cum uint64
	for i, c := range s.Buckets {
		if cum+c < rank {
			cum += c
			continue
		}
		if i == 0 {
			return 0
		}
		lo := float64(uint64(1) << (i - 1))
		if !interpolate {
			return lo
		}
		return lo + lo*(float64(rank-cum)-0.5)/float64(c)
	}
	return 0 // unreachable: the buckets sum to Count
}

// setupServed builds and serves the workload's store as moreSetups
// says and returns the last, reporting the median set-up time.
func setupServed(r *report, wl string, traced bool) (*servedStore, []server.Op, error) {
	preload := preloadOps(wl)
	var times []float64
	var s *servedStore
	h0 := sampleHost()
	for moreSetups(times, traced) {
		if s != nil {
			s.close()
			s = nil
			runtime.GC() // drop the previous store before timing the next
		}
		t := time.Now()
		var err error
		if s, err = startServed(wl, preload); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	r.setSetup(times, stealShare(h0, sampleHost()), fmt.Sprintf("%d keys", len(preload)))
	return s, preload, nil
}

// finalCheck checks the store after the load: kv-read still holds every
// key; kv-txn conserved every group's total.
func finalCheck(wl string, rt *server.Router) error {
	if wl == "kv-read" {
		_, lens := rt.Stats()
		n := 0
		for _, l := range lens {
			n += l
		}
		if n != readKeys {
			return fmt.Errorf("kv-read: %d keys after the run, want %d", n, readKeys)
		}
		return nil
	}
	kvs, err := rt.Scan("", "", 0)
	if err != nil {
		return err
	}
	if len(kvs) != groups*groupSize {
		return fmt.Errorf("kv-txn: %d keys after the run, want %d", len(kvs), groups*groupSize)
	}
	for g := 0; g < groups; g++ {
		var sum int64
		part := kvs[g*groupSize : (g+1)*groupSize]
		for _, kv := range part {
			var v int64
			if _, err := fmt.Sscan(kv.Value, &v); err != nil {
				return fmt.Errorf("kv-txn: key %q holds %q", kv.Key, kv.Value)
			}
			sum += v
		}
		if err := checkAudit(g, len(part), sum); err != nil {
			return fmt.Errorf("after the run: %w", err)
		}
	}
	return nil
}

func (r *report) addPhase(p phase) {
	r.attempted += p.done + p.failed
	r.failed += p.failed
	if p.checkErr != nil {
		r.fail(p.checkErr)
	}
}

// runServed runs kv-read or kv-txn. Untraced, it measures a closed loop
// of 2 connections for d (ops_per_s and the latency percentiles).
// Traced, it gives the per-layer ledger.
func runServed(wl string, seed int64, d time.Duration, traced bool, outDir string) (*report, error) {
	r := newReport()
	s, preload, err := setupServed(r, wl, traced)
	if err != nil {
		return nil, err
	}
	defer s.close()
	st := streams(wl, seed)
	r.addPhase(s.runLoad(st, warmup, 0, false))
	if traced {
		err = s.ledger(r, wl, seed, st, preload, d, outDir)
	} else {
		h0 := sampleHost()
		closed := s.runLoad(st, d, 0, false)
		r.addPhase(closed)
		r.setClosedLoop(closed.lat, closed.elapsed, stealShare(h0, sampleHost()))
	}
	if err != nil {
		return nil, err
	}
	if err := finalCheck(wl, s.srv.Router()); err != nil {
		r.fail(err)
	}
	if !traced {
		r.set("live_heap_mb", liveHeapMB())
		runtime.KeepAlive(s)
	}
	return r, nil
}

// ledger is the traced run of a served workload: an untraced closed loop
// (the baseline for the tracing overhead and the gc.* shares), a traced
// closed loop (spans and engine counters), an open loop (generator
// lateness), then the ladder rungs.
func (s *servedStore) ledger(r *report, wl string, seed int64, st []*stream, preload []server.Op, d time.Duration, outDir string) error {
	rt0 := readRuntime()
	base := s.runLoad(st, d/4, 0, false)
	r.addPhase(base)
	r.setGC(readRuntime().sub(rt0), base.done)

	e0 := readEngines()
	setLatencySampling(true)
	tr := s.runLoad(st, d/4, 0, true)
	setLatencySampling(false)
	r.setEngines(e0, readEngines())
	r.addPhase(tr)

	open := s.runLoad(st, d/5, openRate[wl], false)
	r.addPhase(open)
	r.set("client.late_p99_us", open.late.quantileUS(0.99))
	r.set("transport.new_conns", float64(s.conns.Load()))

	spans := append(tr.spans, s.handlerSpans()...)
	mean, count, transport := reqSpans(spans)
	var all, gen, dec float64
	var n float64
	for c := range mean {
		all += mean[c][lClient] * float64(count[c])
		gen += mean[c][lGen] * float64(count[c])
		dec += mean[c][lDecode] * float64(count[c])
		n += float64(count[c])
	}
	r.set("client.gen_us", ratio(gen, n))
	r.set("client.decode_check_us", ratio(dec, n))
	untraced := base.lat.meanUS()
	// The traced mean is of the client span, which also holds the decode
	// and check time the untraced latency leaves out; compare like with like.
	tracedRT := ratio(all-dec, n)
	r.set("trace.overhead_us", tracedRT-untraced)
	r.set("trace.overhead_share", ratio(tracedRT-untraced, untraced))
	r.note("tracing: untraced closed-loop mean %.2fus, traced %.2fus over %d requests", untraced, tracedRT, int64(n))

	// Ladder rungs, 3 per class, in the remaining 30% of the run.
	ops := ladderOps(wl, seed, [nClass]int{4000, 400, 1000})
	step := 3 * d / 10 / (3 * time.Duration(nClass))
	engine := "stm"
	if wl == "kv-txn" {
		engine = "mvstm"
	}
	bs, err := newBackends(engine, preload)
	if err != nil {
		return fmt.Errorf("backend rung: %w", err)
	}
	var hr, rr, br [nClass]rung
	var scanReads uint64
	for c := class(0); c < nClass; c++ {
		n := len(ops[c].ops)
		hr[c] = replay(n, step, handlerCall(s.handler, &ops[c]))
		rr[c] = replay(n, step, routerCall(s.srv.Router(), &ops[c], c))
		m0 := mvstm.ReadStats()
		br[c] = replay(n, step, backendCall(bs, &ops[c], c))
		if c == clsScan {
			scanReads = mvstm.ReadStats().Sub(m0).SnapshotReads
		}
		for _, g := range []rung{hr[c], rr[c], br[c]} {
			r.attempted += g.n
			r.failed += g.failed
			if g.err != nil {
				r.fail(g.err)
			}
		}
	}
	r.set("mvstm.snapshot_reads_per_scan", ratio(float64(scanReads), float64(br[clsScan].n)))
	backendNames := [nClass]string{"backend.get_us", "backend.scan_us", "backend.apply_us"}
	for c := class(0); c < nClass; c++ {
		name := classNames[c]
		r.set("transport."+name+"_us", transport[c])
		r.set("server."+name+"_us", mean[c][lHandler]-rr[c].meanUS())
		r.set("server.allocs_per_"+name, hr[c].allocsPerOp()-rr[c].allocsPerOp())
		r.set("router."+name+"_us", rr[c].meanUS()-br[c].meanUS())
		r.set(backendNames[c], br[c].meanUS())
		r.note("%s rungs: handler %.2fus %.1f allocs, router %.2fus %.1f allocs, backend %.2fus %.1f allocs; served handler span %.2fus over %d requests",
			name, hr[c].meanUS(), hr[c].allocsPerOp(), rr[c].meanUS(), rr[c].allocsPerOp(), br[c].meanUS(), br[c].allocsPerOp(), mean[c][lHandler], count[c])
	}
	crossShard(r, wl, seed)

	if err := getLedger(r, mean[clsGet], transport[clsGet], hr[clsGet], rr[clsGet], br[clsGet]); err != nil {
		r.fail(err)
	}

	for _, name := range []string{"stm.allocs_per_txn", "stm.txn_self_us", "stm.container_us"} {
		r.set(name, 0) // measured on lib-bank only
	}
	labelHandlerSpans(spans)
	path, err := writeSpans(outDir, fmt.Sprintf("spans-%s-seed%d.csv", wl, seed), spans)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.note("spans: %d written to %s", len(spans), path)
	return nil
}

// labelHandlerSpans copies each request's class onto its handler span.
func labelHandlerSpans(spans []span) {
	cls := map[uint64]uint8{}
	for _, s := range spans {
		if s.layer == lClient {
			cls[s.req] = s.cls
		}
	}
	for i := range spans {
		if spans[i].layer == lHandler {
			spans[i].cls = cls[spans[i].req]
		}
	}
}

// crossShard reports how often requests span shards, over the first
// 20,000 requests of load worker 0: a get never does, a scan always reads
// every shard, a batch does when its keys hash to more than one.
func crossShard(r *report, wl string, seed int64) {
	st := newStream(wl, seed, 0)
	const n = 20_000
	var cross, txns, touched float64
	for i := 0; i < n; i++ {
		o := st.next(st)
		switch o.cls {
		case clsScan:
			cross++
		case clsTxn:
			k := float64(len(splitByShard(o.batch)))
			txns++
			touched += k
			if k > 1 {
				cross++
			}
		}
	}
	r.set("router.cross_shard_share", cross/n)
	r.set("router.shards_per_txn", ratio(touched, txns))
}

// getLedger splits the traced get into its layers and checks that they
// account for it. The client span is gen + round trip + decode, and the
// round trip is split at the served handler span into transport and
// handler. The handler's share is then taken from the rungs, which
// replay gets out of band: server (handler rung minus router rung),
// router (router rung minus backend rung) and backend. The residual is
// the traced get less the sum of the layers; it comes to the served
// handler span minus the handler rung, the time the rungs fail to
// account for. The ledger fails when the residual exceeds a fifth of
// the traced get, or when a layer's time is negative by more than a
// twentieth of it (a rung slower than the one that encloses it).
func getLedger(r *report, mean [nLayer]float64, transport float64, hr, rr, br rung) error {
	traced := mean[lClient]
	parts := []struct {
		name string
		us   float64
	}{
		{"client", mean[lGen] + mean[lDecode]},
		{"transport", transport},
		{"server", hr.meanUS() - rr.meanUS()},
		{"router", rr.meanUS() - br.meanUS()},
		{"backend", br.meanUS()},
	}
	sum := 0.0
	msg := fmt.Sprintf("get ledger: traced mean %.2fus =", traced)
	for _, p := range parts {
		sum += p.us
		msg += fmt.Sprintf(" %s %.2f +", p.name, p.us)
	}
	residual := traced - sum
	r.set("ledger.get_traced_mean_us", traced)
	r.set("ledger.get_residual_share", ratio(residual, traced))
	r.note("%s residual %.2f (served handler span %.2fus, handler rung %.2fus)", msg, residual, mean[lHandler], hr.meanUS())
	if math.Abs(residual) > traced/5 {
		return fmt.Errorf("get ledger: residual %.2fus is more than a fifth of the traced get %.2fus", residual, traced)
	}
	for _, p := range parts {
		if p.us < -traced/20 {
			return fmt.Errorf("get ledger: %s self time %.2fus is negative", p.name, p.us)
		}
	}
	return nil
}

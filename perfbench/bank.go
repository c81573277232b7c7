package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/stm"
)

// bank is lib-bank's store: one stm.OrderedMap of groups*groupSize
// accounts, used as a library with no server in front of it.
type bank struct {
	m    *stm.OrderedMap[int]
	keys [groups][groupSize]string
}

func newBank() (*bank, error) {
	b := &bank{m: stm.NewOrderedMap[int]()}
	for g := range b.keys {
		for m := range b.keys[g] {
			b.keys[g][m] = groupKey(g, m)
		}
		err := stm.Atomically(func(tx *stm.Tx) error {
			for _, k := range b.keys[g] {
				b.m.Put(tx, k, initialBalance)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// teller is one lib-bank load worker. Its transaction bodies are built
// once, so a transaction allocates only what the engine allocates.
//
// The pads keep two tellers, which the two workers write on every
// transaction, off each other's cache lines wherever the allocator puts
// them.
type teller struct {
	_       [64]byte
	b       *bank
	o       op
	traced  bool
	cont    int64 // traced: ns spent inside OrderedMap calls this op
	sum     int64
	keys    []string
	value   int
	found   bool
	xfer    func(tx *stm.Tx) error
	audit   func(tx *stm.Tx) error
	balance func(tx *stm.Tx) error
	visit   func(k string, v int) bool
	_       [64]byte
}

func newTeller(b *bank) *teller {
	t := &teller{b: b, keys: make([]string, 0, groupSize)}
	t.xfer = func(tx *stm.Tx) error {
		ka, kb := b.keys[t.o.group][t.o.a], b.keys[t.o.group][t.o.b]
		defer t.lap(t.clock())
		va, _ := b.m.Get(tx, ka)
		vb, _ := b.m.Get(tx, kb)
		b.m.Put(tx, ka, va-t.o.amt)
		b.m.Put(tx, kb, vb+t.o.amt)
		return nil
	}
	t.visit = func(k string, v int) bool {
		t.keys = append(t.keys, k)
		t.sum += int64(v)
		return true
	}
	t.audit = func(tx *stm.Tx) error {
		t.keys, t.sum = t.keys[:0], 0
		defer t.lap(t.clock())
		b.m.Range(tx, t.o.from, t.o.to, t.visit)
		return nil
	}
	t.balance = func(tx *stm.Tx) error {
		defer t.lap(t.clock())
		t.value, t.found = b.m.Get(tx, b.keys[t.o.group][t.o.a])
		return nil
	}
	return t
}

// clock and lap time the OrderedMap calls of a traced transaction. The
// lap is deferred, so the calls of an attempt that aborts part way count
// too.
func (t *teller) clock() int64 {
	if !t.traced {
		return 0
	}
	return now()
}

func (t *teller) lap(c int64) {
	if t.traced {
		t.cont += now() - c
	}
}

// do runs t.o and checks its outcome.
func (t *teller) do() error {
	switch t.o.cls {
	case clsTxn:
		return stm.Atomically(t.xfer)
	case clsScan:
		if err := stm.AtomicallyRO(t.audit); err != nil {
			return err
		}
		if err := checkRange(t.keys, t.o.from, t.o.to, t.o.limit); err != nil {
			return err
		}
		return checkAudit(t.o.group, len(t.keys), t.sum)
	default:
		if err := stm.AtomicallyRO(t.balance); err != nil {
			return err
		}
		if !t.found {
			return fmt.Errorf("account %q missing", t.o.key)
		}
		return nil
	}
}

// bankPhase is what one lib-bank load phase observed.
type bankPhase struct {
	lat       *classHists
	done      int64
	elapsed   time.Duration
	checkErr  error
	spans     []span
	gen, self int64    // traced: summed generation and engine self time (ns)
	cont      int64    // traced: summed time inside OrderedMap calls (ns)
	_         [64]byte // keeps the workers' counters in a []bankPhase off shared lines
}

// run is a closed loop of loadWorkers tellers for d.
func (b *bank) run(st []*stream, d time.Duration, traced bool) bankPhase {
	parts := make([]bankPhase, len(st))
	for w := range parts {
		parts[w].lat = new(classHists)
		if traced {
			parts[w].spans = make([]span, 0, maxSpansPerWorker+4)
		}
	}
	start := now()
	end := start + int64(d)
	var wg sync.WaitGroup
	for w := range st {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := newTeller(b)
			t.traced = traced
			p := &parts[w]
			var id uint64
			for t0 := now(); t0 < end; t0 = now() {
				t.o = st[w].next(st[w])
				t.cont = 0
				t1 := now()
				err := t.do()
				t2 := now()
				p.done++
				p.lat[t.o.cls].add(t2 - t1)
				if err != nil && p.checkErr == nil {
					p.checkErr = err
				}
				if traced {
					p.gen += t1 - t0
					p.self += t2 - t1 - t.cont
					p.cont += t.cont
					if len(p.spans) < maxSpansPerWorker {
						id++
						req, c := id<<1|uint64(w), uint8(t.o.cls)
						p.spans = append(p.spans,
							span{req: req, layer: lClient, cls: c, start: t0, end: t2},
							span{req: req, layer: lGen, cls: c, start: t0, end: t1},
							span{req: req, layer: lAtomically, cls: c, start: t1, end: t2},
							span{req: req, layer: lContainer, cls: c, start: t1, end: t1 + t.cont})
					}
				}
			}
		}(w)
	}
	wg.Wait()
	p := bankPhase{lat: parts[0].lat, elapsed: time.Duration(now() - start)}
	for i, q := range parts {
		if i > 0 {
			p.lat.merge(q.lat)
		}
		p.done += q.done
		if p.checkErr == nil {
			p.checkErr = q.checkErr
		}
		p.spans = append(p.spans, q.spans...)
		p.gen += q.gen
		p.self += q.self
		p.cont += q.cont
	}
	return p
}

// total sums every account in one read-only transaction.
func (b *bank) total() (int64, int, error) {
	var sum int64
	var n int
	err := stm.AtomicallyRO(func(tx *stm.Tx) error {
		sum, n = 0, 0
		b.m.Range(tx, "", "", func(_ string, v int) bool {
			sum += int64(v)
			n++
			return true
		})
		return nil
	})
	return sum, n, err
}

func (r *report) addBank(p bankPhase) {
	r.attempted += p.done
	if p.checkErr != nil {
		r.fail(p.checkErr)
	}
}

// runBank runs lib-bank: a closed loop of 2 goroutines on one
// OrderedMap. Untraced, the whole of d is measured; traced, d is split
// between an untraced and a traced closed loop and an allocation count.
func runBank(seed int64, d time.Duration, traced bool, outDir string) (*report, error) {
	r := newReport()
	var times []float64
	var b *bank
	h0 := sampleHost()
	for moreSetups(times, traced) {
		b = nil
		runtime.GC() // drop the previous store before timing the next
		t := time.Now()
		var err error
		if b, err = newBank(); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	r.setSetup(times, stealShare(h0, sampleHost()), fmt.Sprintf("%d accounts", groups*groupSize))
	st := streams("lib-bank", seed)
	r.addBank(b.run(st, warmup, false))

	if traced {
		rt0 := readRuntime()
		base := b.run(st, 2*d/5, false)
		r.addBank(base)
		r.setGC(readRuntime().sub(rt0), base.done)

		e0 := readEngines()
		setLatencySampling(true)
		tr := b.run(st, 2*d/5, true)
		setLatencySampling(false)
		r.setEngines(e0, readEngines())
		r.addBank(tr)
		n := float64(tr.done)
		r.set("stm.txn_self_us", ratio(float64(tr.self), n)/1e3)
		r.set("stm.container_us", ratio(float64(tr.cont), n)/1e3)
		r.set("client.gen_us", ratio(float64(tr.gen), n)/1e3)
		ub, tb := base.lat.meanUS(), tr.lat.meanUS()
		r.set("trace.overhead_us", tb-ub)
		r.set("trace.overhead_share", ratio(tb-ub, ub))
		r.note("tracing: untraced mean %.3fus, traced %.3fus; engine self %.3fus, container %.3fus per transaction",
			ub, tb, ratio(float64(tr.self), n)/1e3, ratio(float64(tr.cont), n)/1e3)
		r.set("stm.allocs_per_txn", b.transferAllocs(seed, d/5))
		// The audit check is the only output decoding lib-bank does; it
		// is inside the transaction span, so there is nothing to split out.
		for _, name := range []string{"client.decode_check_us", "client.late_p99_us", "transport.get_us", "transport.scan_us",
			"transport.txn_us", "transport.new_conns", "server.get_us", "server.scan_us", "server.txn_us",
			"server.allocs_per_get", "server.allocs_per_scan", "server.allocs_per_txn", "router.get_us", "router.scan_us",
			"router.txn_us", "router.cross_shard_share", "router.shards_per_txn", "backend.get_us", "backend.scan_us",
			"backend.apply_us", "mvstm.snapshot_reads_per_scan", "ledger.get_traced_mean_us", "ledger.get_residual_share"} {
			r.set(name, 0) // no server layer on lib-bank
		}
		path, err := writeSpans(outDir, fmt.Sprintf("spans-lib-bank-seed%d.csv", seed), tr.spans)
		if err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		r.note("spans: %d written to %s", len(tr.spans), path)
	} else {
		h0 := sampleHost()
		p := b.run(st, d, false)
		r.addBank(p)
		r.setClosedLoop(p.lat, p.elapsed, stealShare(h0, sampleHost()))
	}
	sum, n, err := b.total()
	if err != nil {
		return nil, err
	}
	if n != groups*groupSize || sum != groups*groupTotal {
		r.fail(fmt.Errorf("lib-bank after the run: %d accounts summing to %d, want %d summing to %d", n, sum, groups*groupSize, groups*groupTotal))
	}
	if !traced {
		r.set("live_heap_mb", liveHeapMB())
		runtime.KeepAlive(b)
	}
	return r, nil
}

// transferAllocs counts heap objects per transfer over single-goroutine
// transfers for d, with nothing else running.
func (b *bank) transferAllocs(seed int64, d time.Duration) float64 {
	t := newTeller(b)
	st := newStream("lib-bank", seed, 2000)
	var ops []op
	for len(ops) < 4096 {
		if o := st.next(st); o.cls == clsTxn {
			ops = append(ops, o)
		}
	}
	before := readRuntime()
	n := 0
	for end := now() + int64(d); now() < end; n++ {
		t.o = ops[n%len(ops)]
		_ = t.do() // a transfer's body never returns an error
	}
	return ratio(float64(readRuntime().sub(before).allocObjects), float64(n))
}

package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/server"
)

// The router, the backends and the engines cannot be wrapped inside a
// served request, so they are measured as rungs of a ladder: the same
// seeded requests are replayed directly into Server.Handler() (for its
// allocations), into Server.Router() and into standalone backends
// preloaded with the same keys. A layer's self time is its rung minus
// the rung below it.

// rungOps is one class's replayed requests, with the per-shard
// sub-batches the backend rung applies for a txn.
type rungOps struct {
	ops  []op
	subs [][][]server.Op
}

// ladderOps draws requests from a stream of its own until it has n of
// each class.
func ladderOps(wl string, seed int64, n [nClass]int) [nClass]rungOps {
	st := newStream(wl, seed, 1000)
	var out [nClass]rungOps
	for {
		full := true
		for c := range out {
			full = full && len(out[c].ops) >= n[c]
		}
		if full {
			return out
		}
		o := st.next(st)
		if len(out[o.cls].ops) >= n[o.cls] {
			continue
		}
		out[o.cls].ops = append(out[o.cls].ops, o)
		if o.cls == clsTxn {
			out[clsTxn].subs = append(out[clsTxn].subs, splitByShard(o.batch))
		}
	}
}

// splitByShard groups a batch by owning shard in ascending shard order,
// as the router applies it.
func splitByShard(batch []server.Op) [][]server.Op {
	by := map[int][]server.Op{}
	for _, o := range batch {
		s := server.ShardOfKey(o.Key, shards)
		by[s] = append(by[s], o)
	}
	ids := make([]int, 0, len(by))
	for s := range by {
		ids = append(ids, s)
	}
	sort.Ints(ids)
	out := make([][]server.Op, len(ids))
	for i, s := range ids {
		out[i] = by[s]
	}
	return out
}

// rung is one replay's outcome.
type rung struct {
	n      int64
	busy   time.Duration // summed time inside the calls
	allocs uint64        // heap objects allocated by the whole replay
	failed int64
	err    error
}

func (r rung) meanUS() float64      { return ratio(us(r.busy), float64(r.n)) }
func (r rung) allocsPerOp() float64 { return ratio(float64(r.allocs), float64(r.n)) }

// replay calls call(w, i) for the n requests of a class from loadWorkers
// goroutines (worker w takes every loadWorkers-th request, cycling) until
// d has passed, timing each call.
func replay(n int, d time.Duration, call func(w, i int) error) rung {
	before := readRuntime()
	end := now() + int64(d)
	parts := make([]rung, loadWorkers)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &parts[w]
			for i := w; now() < end; i += loadWorkers {
				if i >= n {
					i = w
				}
				t := now()
				err := call(w, i)
				p.busy += time.Duration(now() - t)
				p.n++
				if err != nil {
					p.failed++
					if p.err == nil {
						p.err = err
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var r rung
	for _, p := range parts {
		r.n += p.n
		r.busy += p.busy
		r.failed += p.failed
		if r.err == nil {
			r.err = p.err
		}
	}
	r.allocs = readRuntime().sub(before).allocObjects
	return r
}

// routerCall replays request i of a class into the router.
func routerCall(rt *server.Router, ro *rungOps, c class) func(w, i int) error {
	return func(_, i int) error {
		o := &ro.ops[i]
		switch c {
		case clsGet:
			if _, ok, err := rt.Get(o.key); err != nil || !ok {
				return fmt.Errorf("router get %q: found=%v err=%v", o.key, ok, err)
			}
		case clsScan:
			kvs, err := rt.Scan(o.from, o.to, o.limit)
			if err != nil || len(kvs) != o.want {
				return fmt.Errorf("router scan %q: %d keys, err=%v", o.from, len(kvs), err)
			}
		default:
			if _, err := rt.Batch(o.batch); err != nil {
				return fmt.Errorf("router batch: %w", err)
			}
		}
		return nil
	}
}

// backendCall replays request i of a class into standalone backends, one
// per shard, making the calls the router would make: a get on the owning
// shard, an unlimited scan on every shard, one Apply per touched shard.
func backendCall(bs []server.Backend, ro *rungOps, c class) func(w, i int) error {
	return func(_, i int) error {
		o := &ro.ops[i]
		switch c {
		case clsGet:
			if _, ok, err := bs[server.ShardOfKey(o.key, shards)].Get(o.key); err != nil || !ok {
				return fmt.Errorf("backend get %q: found=%v err=%v", o.key, ok, err)
			}
		case clsScan:
			for _, b := range bs {
				if _, err := b.Scan(o.from, o.to, 0); err != nil {
					return fmt.Errorf("backend scan: %w", err)
				}
			}
		default:
			for _, sub := range ro.subs[i] {
				if _, err := bs[server.ShardOfKey(sub[0].Key, shards)].Apply(sub); err != nil {
					return fmt.Errorf("backend apply: %w", err)
				}
			}
		}
		return nil
	}
}

// newBackends builds standalone backends of the engine, preloaded with
// the keys the router would place on each shard.
func newBackends(engine string, preload []server.Op) ([]server.Backend, error) {
	bs := make([]server.Backend, shards)
	parts := make([][]server.Op, shards)
	for _, o := range preload {
		s := server.ShardOfKey(o.Key, shards)
		parts[s] = append(parts[s], o)
	}
	for s := range bs {
		if engine == "mvstm" {
			bs[s] = server.NewMVSTMBackend()
		} else {
			bs[s] = server.NewSTMBackend()
		}
		for i := 0; i < len(parts[s]); i += 1024 {
			if _, err := bs[s].Apply(parts[s][i:min(i+1024, len(parts[s]))]); err != nil {
				return nil, err
			}
		}
	}
	return bs, nil
}

// sinkWriter is a reusable ResponseWriter for the handler rung.
type sinkWriter struct {
	h      http.Header
	status int
}

func (w *sinkWriter) Header() http.Header         { return w.h }
func (w *sinkWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *sinkWriter) WriteHeader(code int)        { w.status = code }

// handlerCall replays request i of a class into the handler with
// requests built before the replay, so the rung's allocations are the
// handler's own.
func handlerCall(h http.Handler, ro *rungOps) func(w, i int) error {
	type call struct {
		req  *http.Request
		body []byte
		rd   *bytes.Reader
	}
	calls := make([]call, len(ro.ops))
	for i := range ro.ops {
		o := &ro.ops[i]
		switch o.cls {
		case clsGet:
			calls[i].req = httptest.NewRequest(http.MethodGet, "/get?key="+url.QueryEscape(o.key), nil)
		case clsScan:
			calls[i].req = httptest.NewRequest(http.MethodGet, "/scan?from="+url.QueryEscape(o.from)+
				"&to="+url.QueryEscape(o.to)+"&limit="+strconv.Itoa(o.limit), nil)
		default:
			body, err := encodeBody(o)
			if err != nil {
				panic(err) // the body holds only strings and integers this benchmark generated
			}
			calls[i].body, calls[i].rd = body, bytes.NewReader(body)
			calls[i].req = httptest.NewRequest(http.MethodPost, o.path, nil)
			calls[i].req.Body = io.NopCloser(calls[i].rd)
		}
	}
	sinks := make([]sinkWriter, loadWorkers)
	for w := range sinks {
		sinks[w].h = http.Header{}
	}
	return func(w, i int) error {
		c, sk := &calls[i], &sinks[w]
		if c.rd != nil {
			c.rd.Reset(c.body)
		}
		clear(sk.h)
		sk.status = http.StatusOK
		h.ServeHTTP(sk, c.req)
		if sk.status != http.StatusOK {
			return fmt.Errorf("handler %s: status %d", c.req.URL.Path, sk.status)
		}
		return nil
	}
}

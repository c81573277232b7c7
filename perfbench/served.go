package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

const (
	shards = 4
	// reqIDHeader carries the request id a traced request's client and
	// handler spans share.
	reqIDHeader = "X-Perfbench-Req"
)

// openRate is the fixed offered load of a traced run's open-loop phase,
// which measures how late the generator sends (client.late_p99_us): about
// half of the closed-loop capacity with 2 connections on a 2-vCPU x86
// virtual machine (kv-read ~20k ops/s, kv-txn ~5.8k ops/s). It is a
// constant, so the same load is offered to every commit.
var openRate = map[string]float64{"kv-read": 10_000, "kv-txn": 2_900}

// servedStore is one in-process server behind a loopback TCP listener,
// with the client that loads it.
type servedStore struct {
	wl       string
	srv      *server.Server
	handler  http.Handler
	hs       *http.Server
	serveErr chan error
	base     string
	tr       *http.Transport
	hc       *http.Client
	conns    atomic.Int64 // connections the server accepted
	tracing  atomic.Bool
	reqID    atomic.Uint64
	spanMu   sync.Mutex
	spans    []span // handler spans of traced requests
}

// startServed builds a server of the workload's engine, preloads it and
// starts serving it on a loopback port; it returns once a health check
// has been answered.
func startServed(wl string, preload []server.Op) (*servedStore, error) {
	engine := "stm"
	if wl == "kv-txn" {
		engine = "mvstm"
	}
	srv, err := server.New(server.Config{Engine: engine, Shards: shards})
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(preload); i += 1024 {
		if _, err := srv.Router().Batch(preload[i:min(i+1024, len(preload))]); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &servedStore{wl: wl, srv: srv, handler: srv.Handler(), serveErr: make(chan error, 1), base: "http://" + ln.Addr().String()}
	s.hs = &http.Server{Handler: s, ConnState: func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			s.conns.Add(1)
		}
	}}
	go func() { s.serveErr <- s.hs.Serve(ln) }()
	s.tr = &http.Transport{MaxConnsPerHost: loadWorkers, MaxIdleConnsPerHost: loadWorkers, DisableCompression: true}
	s.hc = &http.Client{Transport: s.tr, Timeout: 30 * time.Second}
	resp, err := s.hc.Get(s.base + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the server and waits for its Serve loop to return.
func (s *servedStore) close() {
	s.tr.CloseIdleConnections()
	_ = s.hs.Close() // the only error is the listener's, which Serve also reports
	<-s.serveErr
}

// ServeHTTP is the benchmark's wrapper around Server.Handler(): when
// tracing, it records the handler span of each request under the id the
// client sent.
func (s *servedStore) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !s.tracing.Load() {
		s.handler.ServeHTTP(w, r)
		return
	}
	start := now()
	s.handler.ServeHTTP(w, r)
	end := now()
	id, _ := strconv.ParseUint(r.Header.Get(reqIDHeader), 10, 64) // a missing id is 0 and joins no client span
	s.spanMu.Lock()
	s.spans = append(s.spans, span{req: id, layer: lHandler, start: start, end: end})
	s.spanMu.Unlock()
}

// request encodes o as an HTTP request.
func (s *servedStore) request(o *op, id uint64) (*http.Request, error) {
	var req *http.Request
	var err error
	switch o.cls {
	case clsGet:
		req, err = http.NewRequest(http.MethodGet, s.base+"/get?key="+url.QueryEscape(o.key), nil)
	case clsScan:
		req, err = http.NewRequest(http.MethodGet, s.base+"/scan?from="+url.QueryEscape(o.from)+
			"&to="+url.QueryEscape(o.to)+"&limit="+strconv.Itoa(o.limit), nil)
	default:
		var body []byte
		if body, err = encodeBody(o); err != nil {
			return nil, err
		}
		req, err = http.NewRequest(http.MethodPost, s.base+o.path, bytes.NewReader(body))
	}
	if err != nil {
		return nil, err
	}
	if id != 0 {
		req.Header.Set(reqIDHeader, strconv.FormatUint(id, 10))
	}
	return req, nil
}

// encodeBody encodes the JSON body of a write request.
func encodeBody(o *op) ([]byte, error) {
	if o.path == "/put" {
		return json.Marshal(server.KV{Key: o.batch[0].Key, Value: o.batch[0].Value})
	}
	return json.Marshal(struct {
		Ops []server.Op `json:"ops"`
	}{o.batch})
}

// send runs one HTTP round trip and returns the body of a 200 response.
func (s *servedStore) send(req *http.Request) ([]byte, error) {
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, body)
	}
	return body, nil
}

// phase is what one load phase observed.
type phase struct {
	lat      *classHists
	late     hist  // open loop: how late each request was sent
	done     int64 // requests answered with 200
	failed   int64 // transport errors and non-200 responses
	checkErr error
	spans    []span
	elapsed  time.Duration
}

func (p *phase) merge(q phase) {
	p.lat.merge(q.lat)
	p.late.merge(&q.late)
	p.done += q.done
	p.failed += q.failed
	if p.checkErr == nil {
		p.checkErr = q.checkErr
	}
	p.spans = append(p.spans, q.spans...)
}

// runLoad runs loadWorkers load workers for d. With rate 0 each worker is
// a closed loop; otherwise the workers together offer rate requests per
// second on a fixed schedule and each request is timed from when it was
// due, so a stall also counts against the requests queued behind it.
func (s *servedStore) runLoad(streams []*stream, d time.Duration, rate float64, traced bool) phase {
	s.tracing.Store(traced)
	defer s.tracing.Store(false)
	parts := make([]phase, len(streams))
	for w := range parts {
		parts[w].lat = new(classHists)
		if traced {
			parts[w].spans = make([]span, 0, maxSpansPerWorker+4)
		}
	}
	start := now()
	end := start + int64(d)
	var wg sync.WaitGroup
	for w := range streams {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s.worker(&parts[w], streams[w], w, start, end, rate, traced)
		}(w)
	}
	wg.Wait()
	p := parts[0]
	for _, q := range parts[1:] {
		p.merge(q)
	}
	p.elapsed = time.Duration(now() - start)
	return p
}

// worker is one load worker of runLoad, recording into p.
func (s *servedStore) worker(p *phase, st *stream, w int, start, end int64, rate float64, traced bool) {
	var interval float64
	var pc *pacer
	if rate > 0 {
		interval = float64(time.Second) / rate
		var err error
		if pc, err = newPacer(); err != nil {
			p.checkErr = err
			return
		}
		defer pc.close()
	}
	for k := 0; ; k++ {
		t0 := now()
		issued := t0
		if rate > 0 {
			due := start + int64(float64(k*loadWorkers+w)*interval)
			if due >= end {
				break
			}
			for t0 < due {
				if err := pc.sleep(time.Duration(due - t0)); err != nil {
					p.checkErr = err
					return
				}
				t0 = now()
			}
			p.late.add(t0 - due)
			issued = due
		} else if t0 >= end {
			break
		}
		o := st.next(st)
		var id uint64
		if traced {
			id = s.reqID.Add(1)
		}
		req, err := s.request(&o, id)
		if err != nil {
			p.checkErr = err
			continue
		}
		t1 := now()
		body, err := s.send(req)
		t2 := now()
		if err != nil {
			p.failed++
			continue
		}
		p.done++
		p.lat[o.cls].add(t2 - issued)
		if err := checkResponse(s.wl, &o, body); err != nil && p.checkErr == nil {
			p.checkErr = err
		}
		if traced && len(p.spans) < maxSpansPerWorker {
			t3 := now()
			c := uint8(o.cls)
			p.spans = append(p.spans,
				span{req: id, layer: lClient, cls: c, start: t0, end: t3},
				span{req: id, layer: lGen, cls: c, start: t0, end: t1},
				span{req: id, layer: lRoundTrip, cls: c, start: t1, end: t2},
				span{req: id, layer: lDecode, cls: c, start: t2, end: t3})
		}
	}
}

// handlerSpans takes the handler spans recorded so far.
func (s *servedStore) handlerSpans() []span {
	s.spanMu.Lock()
	defer s.spanMu.Unlock()
	out := s.spans
	s.spans = nil
	return out
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// epoch is the origin of every span timestamp.
var epoch = time.Now()

// now is monotonic nanoseconds since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// Layers of a span. Served requests record client (the whole request in
// the generator), gen, roundtrip (http.Client.Do plus reading the body)
// and decode on the client, and handler (Server.Handler()) on the server.
// lib-bank records client, gen, atomically (the stm.Atomically or
// AtomicallyRO call) and container (each OrderedMap call inside it).
const (
	lClient uint8 = iota
	lGen
	lRoundTrip
	lDecode
	lHandler
	lAtomically
	lContainer
	nLayer
)

var layerNames = [nLayer]string{"client", "gen", "roundtrip", "decode", "handler", "atomically", "container"}

// parentOf is the layer whose span encloses each layer's span.
var parentOf = [nLayer]string{"", "client", "client", "client", "roundtrip", "client", "atomically"}

// maxSpansPerWorker bounds the spans one load worker keeps, and the size
// of the span file; aggregates are computed from the kept spans.
const maxSpansPerWorker = 100_000

// span is one timed call at a layer boundary; spans of one request share
// req.
type span struct {
	req        uint64
	layer, cls uint8
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// reqSpans joins the spans of each request and returns, per class, the
// mean duration of each layer over the requests that recorded it.
func reqSpans(spans []span) (mean [nClass][nLayer]float64, count [nClass]int64, transport [nClass]float64) {
	type req struct {
		cls  uint8
		d    [nLayer]int64
		seen [nLayer]bool
	}
	byID := map[uint64]*req{}
	for _, s := range spans {
		r := byID[s.req]
		if r == nil {
			r = &req{}
			byID[s.req] = r
		}
		r.d[s.layer] += s.dur()
		r.seen[s.layer] = true
		if s.layer == lClient {
			r.cls = s.cls
		}
	}
	var sum [nClass][nLayer]float64
	var n [nClass][nLayer]int64
	var tsum [nClass]float64
	var tn [nClass]int64
	for _, r := range byID {
		if !r.seen[lClient] {
			continue // a handler span whose client span was not kept
		}
		c := r.cls
		count[c]++
		for l := range r.d {
			if r.seen[l] {
				sum[c][l] += float64(r.d[l])
				n[c][l]++
			}
		}
		if r.seen[lRoundTrip] && r.seen[lHandler] {
			tsum[c] += float64(r.d[lRoundTrip] - r.d[lHandler])
			tn[c]++
		}
	}
	for c := range sum {
		for l := range sum[c] {
			mean[c][l] = ratio(sum[c][l], float64(n[c][l])) / 1e3
		}
		transport[c] = ratio(tsum[c], float64(tn[c])) / 1e3
	}
	return mean, count, transport
}

// writeSpans writes the spans of a traced run to dir as CSV, one line per
// span, with the layer of the span that encloses it.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "req,layer,parent,class,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%s,%s,%s,%d,%d\n", s.req, layerNames[s.layer], parentOf[s.layer], classNames[s.cls], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

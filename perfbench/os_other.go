//go:build !linux

package main

import "time"

// sampleHost reports no steal off Linux.
func sampleHost() hostSample { return hostSample{} }

// pacer sleeps an open-loop worker until its next request is due; only
// Linux gets the sub-millisecond one.
type pacer struct{}

func newPacer() (*pacer, error)              { return &pacer{}, nil }
func (p *pacer) sleep(d time.Duration) error { time.Sleep(d); return nil }
func (p *pacer) close()                      {}

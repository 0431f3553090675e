package main

import (
	"testing"
	"time"
)

// TestOpenLoopChargesStalls drives the open loop against a target that
// is slower than the arrival interval. Requests queue behind each
// other, so each one's latency, timed from its due time, grows with
// its position, and the generator reports itself late by the same
// amount. A timer started at send time would see every request take
// one service time.
func TestOpenLoopChargesStalls(t *testing.T) {
	const (
		n       = 20
		rate    = 1000.0 // one request due every millisecond
		service = 5 * time.Millisecond
	)
	res := openLoop(n, rate, 1, func(int) error {
		time.Sleep(service)
		return nil
	})
	for i := range n {
		if !res.ok[i] {
			t.Fatalf("request %d failed", i)
		}
		// One connection serves the requests in order, each taking at
		// least the service time, so request i starts no earlier than
		// i services after the start and is due i intervals after it.
		minLate := float64(i) * (ms(service) - 1)
		if res.late[i] < minLate {
			t.Errorf("request %d: late %.2f ms, want ≥ %.2f ms", i, res.late[i], minLate)
		}
		if res.lat[i] < res.late[i]+ms(service) {
			t.Errorf("request %d: latency %.2f ms is less than late %.2f ms + service", i, res.lat[i], res.late[i])
		}
	}
	if last := res.lat[n-1]; last < 10*ms(service) {
		t.Errorf("last request's latency %.2f ms does not include the queue ahead of it", last)
	}
	if got := maxOf(res.late); got < float64(n-1)*(ms(service)-1) {
		t.Errorf("max lateness %.2f ms undercounts the stall", got)
	}
}

// TestOpenLoopKeepsSchedule checks that a fast target is offered its
// requests on schedule: the loop takes about n/rate, not less.
func TestOpenLoopKeepsSchedule(t *testing.T) {
	t0 := time.Now()
	res := openLoop(50, 500, 2, func(int) error { return nil })
	if el := time.Since(t0); el < 98*time.Millisecond {
		t.Errorf("50 requests at 500/s took %v, want ≥ 98ms", el)
	}
	for i, l := range res.late {
		if l < 0 {
			t.Errorf("request %d sent %.3f ms before it was due", i, -l)
		}
	}
}

package main

import (
	"context"
	"strings"
	"testing"

	"carsgo"
)

func fibCases(t *testing.T) []simCase {
	t.Helper()
	cases, err := fig08Cases()
	if err != nil {
		t.Fatal(err)
	}
	var fib []simCase
	for _, c := range cases {
		if c.wl.Name == "FIB" {
			fib = append(fib, c)
		}
	}
	if len(fib) != 2 {
		t.Fatalf("want FIB baseline and CARS cases, got %d", len(fib))
	}
	return fib
}

func TestRecordedDigestsCoverTheSlice(t *testing.T) {
	expect, err := parseDigests(recordedDigests)
	if err != nil {
		t.Fatal(err)
	}
	cases, err := fig08Cases()
	if err != nil {
		t.Fatal(err)
	}
	if len(expect) != len(cases) {
		t.Errorf("%d recorded digests for %d cases", len(expect), len(cases))
	}
	for _, c := range cases {
		if _, ok := expect[c.key()]; !ok {
			t.Errorf("no recorded digest for %s", c.key())
		}
	}
}

// TestDigestGateFires checks the gate passes the recorded digests and
// fires when either the expectation or the result is perturbed.
func TestDigestGateFires(t *testing.T) {
	expect, err := parseDigests(recordedDigests)
	if err != nil {
		t.Fatal(err)
	}
	c := fibCases(t)[0]
	r, err := carsgo.Run(c.cfg, c.wl)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDigest(expect, c, r); err != nil {
		t.Fatalf("unperturbed: %v", err)
	}

	perturbed := map[string]string{}
	for k, v := range expect {
		perturbed[k] = v
	}
	d := []byte(perturbed[c.key()])
	d[0] ^= 1
	perturbed[c.key()] = string(d)
	if err := checkDigest(perturbed, c, r); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Errorf("perturbed expectation passed the gate (err %v)", err)
	}

	r.Stats.Cycles++
	if err := checkDigest(expect, c, r); err == nil {
		t.Error("a one-cycle change passed the gate")
	}
	r.Stats.Cycles--
	r.Output[0]++
	if err := checkDigest(expect, c, r); err == nil {
		t.Error("a changed output word passed the gate")
	}
	delete(perturbed, c.key())
	if err := checkDigest(perturbed, c, r); err == nil {
		t.Error("a case without a recorded digest passed the gate")
	}
}

// TestOutputsAgreeGate checks that baseline and CARS outputs must
// match.
func TestOutputsAgreeGate(t *testing.T) {
	cs := fibCases(t)
	a := &carsgo.Result{Output: []uint32{1, 2, 3}}
	b := &carsgo.Result{Output: []uint32{1, 2, 3}}
	if errs := checkOutputsAgree(cs, []*carsgo.Result{a, b}); len(errs) != 0 {
		t.Errorf("equal outputs: %v", errs)
	}
	b.Output = []uint32{1, 2, 4}
	if errs := checkOutputsAgree(cs, []*carsgo.Result{a, b}); len(errs) != 1 {
		t.Errorf("differing outputs: got %d errors, want 1", len(errs))
	}
}

// TestTracedRunMatchesRun pins tracedRun to carsgo.Run, and checks its
// spans cover the simulation.
func TestTracedRunMatchesRun(t *testing.T) {
	for _, c := range fibCases(t) {
		want, err := carsgo.Run(c.cfg, c.wl)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		got, cost, err := tracedRun(context.Background(), tr, c.cfg, c.wl)
		if err != nil {
			t.Fatal(err)
		}
		if digestOf(got) != digestOf(want) || got.EnergyNJ != want.EnergyNJ {
			t.Errorf("%s: traced run differs from carsgo.Run", c.key())
		}
		spans := tr.snapshot()
		if len(spans) != 4+len(cost.runs) {
			t.Errorf("%s: %d spans for %d launches", c.key(), len(spans), len(cost.runs))
		}
		self, byID := selfTimes(spans), spanIndex(spans)
		root := byID[cost.root]
		if self[cost.root] > (root.End-root.Start)/10 {
			t.Errorf("%s: %d of %d ns unattributed", c.key(), self[cost.root], root.End-root.Start)
		}
	}
}

package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"carsgo"
)

// TestSeedChangesColdStream checks that serve-cold's documents come
// from the seed: equal seeds replay them, another seed changes them.
func TestSeedChangesColdStream(t *testing.T) {
	a, b, c := newColdStream(1), newColdStream(1), newColdStream(2)
	for i := range 3 {
		_, da := a.next()
		_, db := b.next()
		_, dc := c.next()
		if !bytes.Equal(da, db) {
			t.Errorf("document %d differs under the same seed", i)
		}
		if bytes.Equal(da, dc) {
			t.Errorf("document %d is the same under seeds 1 and 2", i)
		}
	}
	if len(a.first) != 3 {
		t.Errorf("kept %d documents for the cross-check, want 3", len(a.first))
	}
}

// TestSeedDrawsHotSequence checks that serve-hot's seed draws the
// request sequence over a fixed hot set.
func TestSeedDrawsHotSequence(t *testing.T) {
	if !slices.EqualFunc(hotSet(), hotSet(), bytes.Equal) {
		t.Error("the hot set is not fixed")
	}
	draws := func(seed uint64) []int {
		d := hotDraws(seed)
		ks := make([]int, 200)
		for i := range ks {
			ks[i] = d()
		}
		return ks
	}
	if !slices.Equal(draws(1), draws(1)) {
		t.Error("equal seeds draw different sequences")
	}
	if slices.Equal(draws(1), draws(2)) {
		t.Error("seeds 1 and 2 draw the same sequence")
	}
}

// TestSeedLeavesFig08DigestsUnchanged checks that the seed only
// reorders sim-fig08: every case still runs, and its results still
// match the recorded digests.
func TestSeedLeavesFig08DigestsUnchanged(t *testing.T) {
	cases, err := fig08Cases()
	if err != nil {
		t.Fatal(err)
	}
	o1, o2 := caseOrder(1, len(cases)), caseOrder(2, len(cases))
	if slices.Equal(o1, o2) {
		t.Error("seeds 1 and 2 give the same order")
	}
	for _, o := range [][]int{o1, o2} {
		s := slices.Clone(o)
		slices.Sort(s)
		for i, v := range s {
			if i != v {
				t.Fatalf("order %v is not a permutation", o)
			}
		}
	}
	expect, err := parseDigests(recordedDigests)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range [][]int{o1, o2} {
		for _, i := range order {
			c := cases[i]
			if c.wl.Name != "FIB" {
				continue // the cheap cases stand for the slice
			}
			r, err := carsgo.Run(c.cfg, c.wl)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkDigest(expect, c, r); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestGenerateReportsInvalidSpec pins a seed on which spec.Generate
// emits an invalid spec, and which serve-cold's stream under seed 2
// draws: generate turns the panic into an error, and the stream skips
// the seed and counts it.
func TestGenerateReportsInvalidSpec(t *testing.T) {
	const bad = 0x63de9ef6d5fc3290
	if _, err := generate(bad); err == nil {
		t.Fatalf("spec.Generate(%#x) no longer fails: drop the skip in coldStream", uint64(bad))
	}
	s := newColdStream(2)
	for s.n < 2000 && len(s.invalid) == 0 {
		s.next()
	}
	if len(s.invalid) != 1 || !strings.Contains(s.invalid[0].Error(), "0x63de9ef6d5fc3290") {
		t.Fatalf("skipped %v in %d documents, want seed %#x", s.invalid, s.n, uint64(bad))
	}
}

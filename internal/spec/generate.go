package spec

import "fmt"

// Generator: Generate(seed) emits a random-but-valid spec, bit-
// deterministically — the same seed yields the same spec on every run
// and platform. Randomness comes from a self-contained splitmix64
// stream (never math/rand, whose global stream is shared mutable
// state; see the SeededRand lint analyzer), and no float arithmetic is
// involved: the zipf skew uses integer weights.
//
// Generator invariants (DESIGN.md §11): every emitted spec passes
// Validate, lowers to modules that vet clean (no warnings), links
// under every ABI mode, and its dynamic run stays inside the static
// envelope — any deviation is, by definition, a bug somewhere in the
// stack, which is exactly what cmd/carsfuzz exists to find.

// rng is a splitmix64 pseudo-random stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) pick(xs ...int) int { return xs[r.intn(len(xs))] }

// chance returns true pct% of the time.
func (r *rng) chance(pct int) bool { return r.intn(100) < pct }

// zipf picks a rank in [0,n) with probability ∝ 1/(rank+1)^a for
// integer exponent a ≥ 1 — pure integer arithmetic, so the stream is
// platform-independent.
func (r *rng) zipf(n, a int) int {
	if n <= 1 {
		return 0
	}
	weights := make([]int, n)
	total := 0
	for k := 0; k < n; k++ {
		w := 1 << 20
		for e := 0; e < a; e++ {
			w /= k + 1
		}
		if w < 1 {
			w = 1
		}
		weights[k] = w
		total += w
	}
	x := r.intn(total)
	for k, w := range weights {
		x -= w
		if x < 0 {
			return k
		}
	}
	return n - 1
}

// Generate emits one random-but-valid workload spec for the seed.
func Generate(seed uint64) *Spec {
	r := &rng{s: seed ^ 0xCA25C0DE5EED}
	s := &Spec{
		Schema: SchemaVersion,
		Name:   fmt.Sprintf("gen%016x", seed),
		Seed:   seed,
	}

	// Launch geometry: kept inside the envelope the Table I corpus
	// exercises, small enough that a fuzz campaign of hundreds of specs
	// stays inside a CI budget.
	s.Grid = r.pick(4, 8, 12, 16, 24, 32)
	s.Block = r.pick(64, 128, 256)
	s.Iters = 2 + r.intn(7)
	s.Launches = 1

	s.Pattern = []string{PatStream, PatRegion, PatRandLine, PatGather}[r.intn(4)]
	s.FootprintWords = 1 << (10 + r.intn(6))
	if s.Pattern == PatRegion {
		s.RegionWords = 1 << (8 + r.intn(3))
	}

	k := &s.Kernel
	k.Loads = r.intn(5)
	k.ALU = r.intn(9)
	if r.chance(40) {
		k.Regs = r.intn(9)
	}
	if r.chance(25) {
		k.ExtraLocalWords = 1 + r.intn(4)
	}
	if r.chance(35) {
		k.SmemWords = 1024 << r.intn(2)
	}
	if r.chance(30) {
		k.BarrierEvery = r.pick(1, 2, 4)
	}

	// Call-graph size: zipf-skewed toward shallow graphs with an
	// occasional deep chain (the SVR/KMEAN regime).
	nf := 0
	if !r.chance(10) {
		nf = 1 + r.zipf(8, 1)
		if r.chance(15) {
			nf = 6 + r.intn(6)
		}
	}
	if nf > 0 && r.chance(30) {
		k.CallEvery = r.pick(2, 4)
	}

	for i := 0; i < nf; i++ {
		f := FuncSpec{
			Name:        fmt.Sprintf("%s_f%d", s.Name, i),
			CalleeSaved: 1 + r.intn(6),
			ALU:         r.intn(13),
			Loads:       r.intn(3),
			Salt:        i,
		}
		if r.chance(25) {
			f.Divergent = true
		}
		if r.chance(30) {
			f.Loop = &LoopSpec{Trip: 2 + r.intn(3), ALU: 1 + r.intn(4)}
			if r.chance(30) {
				f.Loop.Loads = 1
			}
		}
		if r.chance(20) {
			f.XorTag = 1 + r.intn(1<<16)
		}
		s.Funcs = append(s.Funcs, f)
	}

	// Topology: every function gets one parent — the kernel or an
	// earlier function — chosen zipf-skewed toward the nearest earlier
	// declaration, so graphs lean chain-like (deep stacks) with the
	// skew exponent varying per spec. A function whose chosen parent
	// already makes maxDirectCalls calls hangs off the kernel instead. Extra cross edges then densify the DAG.
	if nf > 0 {
		a := r.pick(1, 2)
		for i := 0; i < nf; i++ {
			rank := r.zipf(i+1, a) // 0 → funcs[i-1], i → kernel
			if i == 0 || rank == i || len(s.Funcs[i-1-rank].Calls) == maxDirectCalls {
				k.Calls = append(k.Calls, s.Funcs[i].Name)
			} else {
				p := &s.Funcs[i-1-rank]
				p.Calls = append(p.Calls, s.Funcs[i].Name)
			}
		}
		for i := 0; i < nf-1; i++ {
			f := &s.Funcs[i]
			if len(f.Calls) < maxDirectCalls && r.chance(20) {
				t := i + 1 + r.intn(nf-i-1)
				name := s.Funcs[t].Name
				dup := false
				for _, c := range f.Calls {
					dup = dup || c == name
				}
				if !dup {
					f.Calls = append(f.Calls, name)
				}
			}
		}
		// One indirect dispatch site, warp-uniform by construction, with
		// two candidates drawn from the functions after the host.
		if nf >= 3 && r.chance(25) {
			c1 := 1 + r.intn(nf-2)
			c2 := c1 + 1 + r.intn(nf-c1-1)
			s.Funcs[0].Indirect = []string{s.Funcs[c1].Name, s.Funcs[c2].Name}
		}
	}

	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("spec: generator emitted an invalid spec for seed %d: %v", seed, err))
	}
	return s
}

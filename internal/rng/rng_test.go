package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownSequence(t *testing.T) {
	// Reference values for seed 0 from the SplitMix64 reference
	// implementation (Vigna).
	state := uint64(0)
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
		0xf88bb8a8724c81ec,
		0x1b39896a51a8749b,
	}
	for i, w := range want {
		if got := SplitMix64(&state); got != w {
			t.Fatalf("output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestMix64Deterministic(t *testing.T) {
	if Mix64(42) != Mix64(42) {
		t.Error("Mix64 not deterministic")
	}
	if Mix64(42) == Mix64(43) {
		t.Error("Mix64 collision on adjacent inputs (suspicious)")
	}
}

func TestPCG32Deterministic(t *testing.T) {
	a := New(12345, 7)
	b := New(12345, 7)
	for i := 0; i < 1000; i++ {
		if a.Uint32() != b.Uint32() {
			t.Fatal("same seed/stream diverged")
		}
	}
}

func TestPCG32SeedMatchesNew(t *testing.T) {
	var p PCG32
	p.Seed(3, 9)
	p.Uint64() // reseeding a used generator restarts its sequence
	p.Seed(7, 11)
	q := New(7, 11)
	for i := 0; i < 100; i++ {
		if a, b := p.Uint32(), q.Uint32(); a != b {
			t.Fatalf("output %d: Seed %#x, New %#x", i, a, b)
		}
	}
}

func TestPCG32StreamsIndependent(t *testing.T) {
	a := New(12345, 1)
	b := New(12345, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams coincide %d/1000 times", same)
	}
}

func TestIntnRange(t *testing.T) {
	p := New(99, 0)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := p.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	p := New(1, 0)
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) should panic", n)
				}
			}()
			p.Intn(n)
		}()
	}
}

func TestIntnUniform(t *testing.T) {
	p := New(2024, 3)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[p.Intn(n)]++
	}
	want := draws / n
	for v, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("value %d drawn %d times, want ~%d", v, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	p := New(5, 5)
	var sum float64
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := p.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	p := New(1, 1)
	for i := 0; i < 100; i++ {
		if p.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !p.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if p.Bool(-0.5) {
			t.Fatal("Bool(negative) returned true")
		}
		if !p.Bool(1.5) {
			t.Fatal("Bool(>1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	p := New(77, 2)
	const draws = 200000
	hits := 0
	for i := 0; i < draws; i++ {
		if p.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("Bool(0.3) rate = %v", got)
	}
}

func TestGeometricMean(t *testing.T) {
	p := New(31337, 9)
	for _, mean := range []float64{1, 2, 5, 20, 100} {
		const draws = 20000
		var sum int
		for i := 0; i < draws; i++ {
			v := p.Geometric(mean)
			if v < 1 {
				t.Fatalf("Geometric returned %d < 1", v)
			}
			sum += v
		}
		got := float64(sum) / draws
		if mean == 1 {
			if got != 1 {
				t.Errorf("Geometric(1) mean = %v, want exactly 1", got)
			}
			continue
		}
		if got < mean*0.9 || got > mean*1.1 {
			t.Errorf("Geometric(%v) mean = %v", mean, got)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	p := New(8, 8)
	f := func(sizeRaw uint8) bool {
		size := int(sizeRaw)%50 + 1
		dst := make([]int, size)
		p.Perm(dst)
		seen := make([]bool, size)
		for _, v := range dst {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPermShuffles(t *testing.T) {
	p := New(123, 4)
	dst := make([]int, 32)
	p.Perm(dst)
	identity := true
	for i, v := range dst {
		if v != i {
			identity = false
		}
	}
	if identity {
		t.Error("Perm produced the identity permutation (astronomically unlikely)")
	}
}

func BenchmarkPCG32Uint32(b *testing.B) {
	p := New(1, 1)
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink ^= p.Uint32()
	}
	_ = sink
}

func BenchmarkPCG32Bool(b *testing.B) {
	p := New(1, 1)
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = p.Bool(0.37) != sink
	}
	_ = sink
}

package workload

import (
	"io"
	"testing"

	"ev8pred/internal/trace"
)

// streamFingerprint is a 64-bit FNV-1a hash over every field of every
// record the generator emits (drained through NextBatch), plus the record
// count.
func streamFingerprint(g *Generator) (uint64, int) {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	buf := make([]trace.Branch, 1000)
	n := 0
	for {
		k, err := g.NextBatch(buf)
		for _, b := range buf[:k] {
			word(b.PC)
			word(b.Target)
			taken := uint64(0)
			if b.Taken {
				taken = 1
			}
			word(taken)
			word(uint64(b.Gap))
			word(uint64(b.Kind))
			word(uint64(b.Thread))
		}
		n += k
		if err == io.EOF {
			break
		}
	}
	word(uint64(n))
	return h, n
}

// fingerprintSeedVariant perturbs a profile seed for the seeded leg of
// TestGeneratorStreamFingerprints.
const fingerprintSeedVariant = 0x9e3779b97f4a7c15

// TestGeneratorStreamFingerprints pins the exact record stream of every
// built-in profile (and of one reseeded variant of each) at 200k
// instructions. The constants are behavior checksums: a generator change
// that moves any field of any record fails here, even if it moves every
// consumer together. Update them only for an intended stream change.
func TestGeneratorStreamFingerprints(t *testing.T) {
	const budget = 200_000
	want := map[string][2]uint64{ // name -> {base, seeded variant}
		"compress": {0x5714da7b1674508a, 0xe2bfee9e916a7c4f},
		"gcc":      {0x913f6117c85509ac, 0xe8dcdbb6fad52f2e},
		"go":       {0x63b3a9dc3d8a6ccf, 0x5e02749c614760f0},
		"ijpeg":    {0x9d3be18e01e7913a, 0x71f31772abf33e9d},
		"li":       {0xbcb30d9da0d4b1ea, 0x5e89d0b921fc0ff9},
		"m88ksim":  {0x6a83fec9081d74a5, 0xee765be84c1f38cd},
		"perl":     {0x62b84d68f1bb4139, 0x02449806dc865b0e},
		"vortex":   {0x150df0805e6cb6af, 0x487101dcc723f4b0},
	}
	profs := Benchmarks()
	if len(profs) != len(want) {
		t.Fatalf("%d built-in profiles, %d pinned", len(profs), len(want))
	}
	for _, prof := range profs {
		w, ok := want[prof.Name]
		if !ok {
			t.Errorf("profile %s has no pinned fingerprint", prof.Name)
			continue
		}
		seeded := prof
		seeded.Seed ^= fingerprintSeedVariant
		for i, p := range []Profile{prof, seeded} {
			got, n := streamFingerprint(MustNew(p, budget))
			if got != w[i] {
				t.Errorf("%s (variant %d): fingerprint %#x over %d records, want %#x", prof.Name, i, got, n, w[i])
			}
		}
	}

	// Correlation taps beyond the 64-bit history register read 0.
	long, err := ByName("go")
	if err != nil {
		t.Fatal(err)
	}
	long.CorrMinDist, long.CorrMaxDist = 50, 200
	const wantLong = 0x11050d5c95407256
	if got, n := streamFingerprint(MustNew(long, budget)); got != wantLong {
		t.Errorf("go with taps 50..200: fingerprint %#x over %d records, want %#x", got, n, wantLong)
	}
}

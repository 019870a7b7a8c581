package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds collided %d/100 times", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	s := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[s.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Errorf("zero-seeded source produced duplicates: %d unique of 100", len(seen))
	}
}

func TestBranchDecorrelated(t *testing.T) {
	parent := New(7)
	a := parent.Branch(1)
	b := parent.Branch(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("branched streams collided %d/1000 times", same)
	}
}

func TestUintnRange(t *testing.T) {
	s := New(3)
	f := func(n uint64) bool {
		n = n%1000 + 1
		v := s.Uintn(n)
		return v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestUintnUniform(t *testing.T) {
	s := New(11)
	const n, draws = 10, 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[s.Uintn(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("bucket %d: %d draws, want ~%d (±10%%)", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	sum := 0.0
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	mean := sum / 100000
	if mean < 0.49 || mean > 0.51 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(9)
	hits := 0
	for i := 0; i < 100000; i++ {
		if s.Bool(0.25) {
			hits++
		}
	}
	if hits < 24000 || hits > 26000 {
		t.Errorf("Bool(0.25) hit %d/100000, want ~25000", hits)
	}
	if s.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Error("Bool(1) returned false")
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(21)
	z := NewZipf(s, 1000, 0.9)
	counts := map[uint64]int{}
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("Zipf value %d out of range", v)
		}
		counts[v]++
	}
	// Item 0 must be the clear hot spot and the top 10 items must carry a
	// disproportionate share of the mass.
	top10 := 0
	for i := uint64(0); i < 10; i++ {
		top10 += counts[i]
	}
	if counts[0] < counts[500]*10 {
		t.Errorf("Zipf not skewed: count[0]=%d count[500]=%d", counts[0], counts[500])
	}
	if float64(top10)/draws < 0.25 {
		t.Errorf("top-10 share = %v, want heavy head (>0.25)", float64(top10)/draws)
	}
}

func TestZipfLargeN(t *testing.T) {
	s := New(33)
	z := NewZipf(s, 1<<30, 0.6)
	for i := 0; i < 10000; i++ {
		if v := z.Next(); v >= 1<<30 {
			t.Fatalf("Zipf value %d out of range for n=2^30", v)
		}
	}
}

func TestZipfPanicsOnBadArgs(t *testing.T) {
	s := New(1)
	for _, tc := range []struct {
		n     uint64
		theta float64
	}{{0, 0.5}, {10, 0}, {10, 1}, {10, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d, %v) did not panic", tc.n, tc.theta)
				}
			}()
			NewZipf(s, tc.n, tc.theta)
		}()
	}
}

// refZipfDraw is the Zipf draw as the generator originally made it, with
// Pow(0.5, theta) recomputed on every call. zetan, eta and alpha are the
// construction-time constants, built independently in the test.
func refZipfDraw(u float64, n uint64, theta, zetan, eta, alpha float64) uint64 {
	uz := u * zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, theta) {
		return 1
	}
	v := uint64(float64(n) * math.Pow(eta*u-eta+1, alpha))
	if v >= n {
		v = n - 1
	}
	return v
}

func refZetaSum(n uint64, theta float64) float64 {
	m := n
	if m > 1<<16 {
		m = 1 << 16
	}
	sum := 0.0
	for i := uint64(1); i <= m; i++ {
		sum += math.Pow(1.0/float64(i), theta)
	}
	if n > m {
		sum += (math.Pow(float64(n), 1-theta) - math.Pow(float64(m), 1-theta)) / (1 - theta)
	}
	return sum
}

// TestZipfMatchesInlineFormula pins the hoisted constants: every draw
// equals the formula evaluated with Pow(0.5, theta), alpha and eta
// recomputed per call, bit for bit, over ranges below and above the
// exact zeta cap and through shared parameters.
func TestZipfMatchesInlineFormula(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 100_000
	}
	for _, tc := range []struct {
		n     uint64
		theta float64
	}{{1000, 0.9}, {16384, 0.8}, {49152, 0.7}, {1 << 20, 0.6}, {3, 0.5}} {
		zetan := refZetaSum(tc.n, tc.theta)
		alpha := 1.0 / (1.0 - tc.theta)
		eta := (1 - math.Pow(2.0/float64(tc.n), 1-tc.theta)) / (1 - refZetaSum(2, tc.theta)/zetan)
		p := NewZipfParams(tc.n, tc.theta)
		z, ref := p.New(New(tc.n)), New(tc.n)
		for i := 0; i < draws; i++ {
			want := refZipfDraw(ref.Float64(), tc.n, tc.theta, zetan, eta, alpha)
			if got := z.Next(); got != want {
				t.Fatalf("n=%d theta=%v draw %d: got %d, want %d", tc.n, tc.theta, i, got, want)
			}
		}
		if z.Params() != p {
			t.Fatalf("n=%d: generator does not share its parameters", tc.n)
		}
	}
}

func BenchmarkZipfNext(b *testing.B) {
	z := NewZipf(New(1), 16384, 0.8) // hmmer's 1 MB hot set
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += z.Next()
	}
	_ = sink
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

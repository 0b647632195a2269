package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split("arrivals")
	// Drawing from c1 must not affect a later split with the same label.
	for i := 0; i < 50; i++ {
		c1.Uint64()
	}
	c2 := parent.Split("arrivals")
	c3 := New(7).Split("arrivals")
	for i := 0; i < 100; i++ {
		v2, v3 := c2.Uint64(), c3.Uint64()
		if v2 != v3 {
			t.Fatalf("split stream not reproducible at draw %d: %d vs %d", i, v2, v3)
		}
	}
}

func TestSplitLabelsDiffer(t *testing.T) {
	parent := New(7)
	a := parent.Split("a")
	b := parent.Split("b")
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("streams with different labels produced identical draws")
	}
}

func TestSplitIndexedDiffer(t *testing.T) {
	parent := New(7)
	a := parent.SplitIndexed("road", 0)
	b := parent.SplitIndexed("road", 1)
	identical := true
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			identical = false
			break
		}
	}
	if identical {
		t.Fatal("indexed streams with different indices are identical")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	f := func(_ uint8) bool {
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(9)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n = 10
	const draws = 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d want ~%.0f", i, c, want)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(5)
	const mean = 6.0
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(mean)
		if v < 0 {
			t.Fatalf("negative exponential draw %g", v)
		}
		sum += v
	}
	got := sum / n
	if math.Abs(got-mean) > 0.1 {
		t.Fatalf("exponential mean: got %.3f want %.1f", got, mean)
	}
}

func TestExpNonPositiveMean(t *testing.T) {
	r := New(5)
	if v := r.Exp(0); v != 0 {
		t.Fatalf("Exp(0) = %g, want 0", v)
	}
	if v := r.Exp(-3); v != 0 {
		t.Fatalf("Exp(-3) = %g, want 0", v)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(13)
	for _, mean := range []float64{0.2, 1, 4, 20} {
		const n = 100000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := float64(r.Poisson(mean))
			sum += v
			sumSq += v * v
		}
		m := sum / n
		variance := sumSq/n - m*m
		if math.Abs(m-mean) > 0.05*mean+0.02 {
			t.Errorf("Poisson(%g) mean: got %.3f", mean, m)
		}
		if math.Abs(variance-mean) > 0.1*mean+0.05 {
			t.Errorf("Poisson(%g) variance: got %.3f", mean, variance)
		}
	}
}

func TestPoissonLargeMeanApproximation(t *testing.T) {
	r := New(17)
	const mean = 100.0
	const n = 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Poisson(mean)
		if v < 0 {
			t.Fatal("negative Poisson draw")
		}
		sum += float64(v)
	}
	if m := sum / n; math.Abs(m-mean) > 1.0 {
		t.Fatalf("Poisson(100) mean: got %.2f", m)
	}
}

func TestPoissonZeroMean(t *testing.T) {
	r := New(1)
	for i := 0; i < 10; i++ {
		if v := r.Poisson(0); v != 0 {
			t.Fatalf("Poisson(0) = %d", v)
		}
	}
}

func TestBool(t *testing.T) {
	r := New(23)
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency %.3f", p)
	}
}

func TestCategorical(t *testing.T) {
	r := New(29)
	weights := []float64{0.4, 0, 0.4, 0.2}
	const n = 100000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[r.Categorical(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight bucket drawn %d times", counts[1])
	}
	for i, w := range weights {
		got := float64(counts[i]) / n
		if math.Abs(got-w) > 0.01 {
			t.Errorf("bucket %d: frequency %.3f want %.1f", i, got, w)
		}
	}
}

func TestCategoricalDegenerate(t *testing.T) {
	r := New(29)
	if idx := r.Categorical([]float64{0, 0, 0}); idx != 2 {
		t.Fatalf("degenerate categorical returned %d, want last index", idx)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(31)
	f := func(n uint8) bool {
		m := int(n%20) + 1
		p := r.Perm(m)
		if len(p) != m {
			return false
		}
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(37)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	m := sum / n
	variance := sumSq/n - m*m
	if math.Abs(m) > 0.02 {
		t.Errorf("normal mean %.4f", m)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %.4f", variance)
	}
}

func TestMul128(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul128(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul128(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	r := New(41)
	const (
		n      = 40
		p      = 0.3
		trials = 50000
	)
	sum, sumSq := 0.0, 0.0
	for i := 0; i < trials; i++ {
		k := r.Binomial(n, p)
		if k < 0 || k > n {
			t.Fatalf("Binomial(%d,%v) = %d out of range", n, p, k)
		}
		v := float64(k)
		sum += v
		sumSq += v * v
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean-n*p) > 0.15 {
		t.Errorf("binomial mean %.3f, want %.1f", mean, float64(n)*p)
	}
	if math.Abs(variance-n*p*(1-p)) > 0.5 {
		t.Errorf("binomial variance %.3f, want %.1f", variance, n*p*(1-p))
	}
}

func TestBinomialDegenerateDrawFree(t *testing.T) {
	r := New(43)
	before := *r
	if got := r.Binomial(10, 0); got != 0 {
		t.Errorf("Binomial(10, 0) = %d, want 0", got)
	}
	if got := r.Binomial(10, 1); got != 10 {
		t.Errorf("Binomial(10, 1) = %d, want 10", got)
	}
	if got := r.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0, 0.5) = %d, want 0", got)
	}
	if got := r.Binomial(-3, 0.5); got != 0 {
		t.Errorf("Binomial(-3, 0.5) = %d, want 0", got)
	}
	if *r != before {
		t.Error("degenerate Binomial parameters consumed random bits")
	}
}

// oracleTrial is one trial as Binomial used to draw it: Float64() < p.
func oracleTrial(r *Source, p float64) bool { return r.Float64() < p }

// bernoulliProbs are the trial probabilities the exactness pins sweep:
// tiny, common, the float64 sum 0.1+0.2 (0.30000000000000004, one ulp
// above 0.3) and the largest float64 below 1.
func bernoulliProbs() []float64 {
	tenth, fifth := 0.1, 0.2 // variables: their sum is rounded
	return []float64{1e-9, 0.1, 0.3, 1 - 0x1p-53, tenth + fifth}
}

// TestBernoulliThresholdExact pins the integer test behind Binomial and
// BernoulliPrefix to Float64() < p at the boundary: for the outputs
// whose top 53 bits sit just below, at and just above ceil(p·2⁵³), the
// branch-free count agrees with the float comparison.
func TestBernoulliThresholdExact(t *testing.T) {
	probs := append(bernoulliProbs(), 0x1p-53, 0x1p-52*3, 0.5, math.SmallestNonzeroFloat64, math.Nextafter(1, 0))
	for _, p := range probs {
		th := bernoulliThreshold(p)
		for _, m := range []uint64{0, 1, th - 2, th - 1, th, th + 1, 1<<53 - 1} {
			if m >= 1<<53 || int64(m) < 0 {
				continue
			}
			for _, low := range []uint64{0, 1<<11 - 1} {
				u := m<<11 | low
				want := float64(u>>11)/(1<<53) < p
				if got := success(u, th) == 1; got != want {
					t.Errorf("p=%v m=%d: success %v, Float64() < p %v", p, m, got, want)
				}
			}
		}
	}
}

// TestBinomialMatchesFloat64Loop pins Binomial to the per-trial
// Float64 loop it replaced: the same count and the same stream position
// for every n up to 300.
func TestBinomialMatchesFloat64Loop(t *testing.T) {
	for _, p := range bernoulliProbs() {
		r := New(101)
		o := *r
		for n := 0; n <= 300; n++ {
			want := 0
			for i := 0; i < n; i++ {
				if oracleTrial(&o, p) {
					want++
				}
			}
			if got := r.Binomial(n, p); got != want {
				t.Fatalf("p=%v: Binomial(%d) = %d, Float64 loop %d", p, n, got, want)
			}
			if r.State() != o.State() {
				t.Fatalf("p=%v n=%d: stream position differs from the Float64 loop", p, n)
			}
		}
	}
}

// TestBernoulliPrefixMatchesFloat64Loop pins the bulk primitive: every
// prefix count equals the Float64 loop's running count, consecutive
// Binomial calls equal the prefix differences, and the stream ends
// where both loops end.
func TestBernoulliPrefixMatchesFloat64Loop(t *testing.T) {
	for _, p := range bernoulliProbs() {
		for _, n := range []int{0, 1, 2, 7, 64, 299, 300} {
			r := New(uint64(200 + n))
			o, b := *r, *r
			cum := make([]int32, n+1)
			for i := range cum {
				cum[i] = -1 // every entry must be written
			}
			r.BernoulliPrefix(cum, p)
			var k int32
			if cum[0] != 0 {
				t.Fatalf("p=%v n=%d: cum[0] = %d", p, n, cum[0])
			}
			for i := 1; i <= n; i++ {
				if oracleTrial(&o, p) {
					k++
				}
				if cum[i] != k {
					t.Fatalf("p=%v n=%d: cum[%d] = %d, Float64 loop %d", p, n, i, cum[i], k)
				}
			}
			if r.State() != o.State() {
				t.Fatalf("p=%v n=%d: stream position differs from the Float64 loop", p, n)
			}
			// The same trials as consecutive Binomial calls.
			at := 0
			for _, run := range []int{n / 3, n / 5, n - n/3 - n/5} {
				if got, want := b.Binomial(run, p), int(cum[at+run]-cum[at]); got != want {
					t.Fatalf("p=%v n=%d: Binomial(%d) = %d, prefix difference %d", p, n, run, got, want)
				}
				at += run
			}
			if b.State() != r.State() {
				t.Fatalf("p=%v n=%d: Binomial runs end elsewhere in the stream", p, n)
			}
		}
	}
}

// TestBernoulliPrefixDegenerateDrawFree mirrors the Binomial contract:
// p <= 0 counts nothing and p >= 1 counts every trial, without drawing,
// and an empty slice is a no-op.
func TestBernoulliPrefixDegenerateDrawFree(t *testing.T) {
	r := New(47)
	before := *r
	cum := make([]int32, 6)
	for _, p := range []float64{0, -1} {
		r.BernoulliPrefix(cum, p)
		for i, c := range cum {
			if c != 0 {
				t.Fatalf("p=%v: cum[%d] = %d, want 0", p, i, c)
			}
		}
	}
	for _, p := range []float64{1, 2} {
		r.BernoulliPrefix(cum, p)
		for i, c := range cum {
			if c != int32(i) {
				t.Fatalf("p=%v: cum[%d] = %d, want %d", p, i, c, i)
			}
		}
	}
	r.BernoulliPrefix(nil, 0.5)
	if *r != before {
		t.Error("degenerate BernoulliPrefix consumed random bits")
	}
}

// BenchmarkBinomial times Binomial(60, 0.3), a connected-vehicle
// reading of a half-full road at 30 % penetration.
func BenchmarkBinomial(b *testing.B) {
	r := New(1)
	for b.Loop() {
		r.Binomial(60, 0.3)
	}
}

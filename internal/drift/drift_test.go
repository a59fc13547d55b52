package drift

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramFractions(t *testing.T) {
	ref := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	h := NewHistogram(ref, 4)
	for _, v := range ref {
		h.Observe(v)
	}
	fr := h.Fractions()
	var sum float64
	for _, f := range fr {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fractions sum %v", sum)
	}
	// Equal-frequency bins over the reference itself: roughly uniform mass.
	for i, f := range fr {
		if f < 0.1 || f > 0.45 {
			t.Fatalf("bin %d mass %v not near uniform", i, f)
		}
	}
	h.Reset()
	if h.total != 0 {
		t.Fatal("reset failed")
	}
	if f := h.Fractions(); f[0] != 0.25 {
		t.Fatalf("empty fractions %v (want uniform)", f)
	}
}

func TestInsertionSortProperty(t *testing.T) {
	f := func(raw []float64) bool {
		v := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) {
				v = append(v, x)
			}
		}
		insertionSort(v)
		return sort.Float64sAreSorted(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPSIIdenticalIsZero(t *testing.T) {
	a := []float64{0.25, 0.25, 0.25, 0.25}
	if got := PSI(a, a); got != 0 {
		t.Fatalf("PSI(a,a) = %v", got)
	}
}

func TestPSIShiftGrows(t *testing.T) {
	ref := []float64{0.25, 0.25, 0.25, 0.25}
	mild := []float64{0.3, 0.25, 0.25, 0.2}
	major := []float64{0.7, 0.1, 0.1, 0.1}
	m := PSI(ref, mild)
	M := PSI(ref, major)
	if m <= 0 || M <= m {
		t.Fatalf("PSI not monotone with shift: mild %v major %v", m, M)
	}
	if M < 0.25 {
		t.Fatalf("major shift PSI %v below the 0.25 convention", M)
	}
}

func genRows(rng *rand.Rand, n int, mean float64) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{mean + rng.NormFloat64(), rng.Float64()}
	}
	return rows
}

func TestInputDetectorStableVsShifted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train := genRows(rng, 2000, 0)
	d := NewInputDetector(train, 10)

	// Same distribution: no drift.
	for _, r := range genRows(rng, 1000, 0) {
		d.Observe(r)
	}
	if d.Drifted() {
		t.Fatal("stable window flagged as drifted")
	}

	// Shifted first column: drift.
	for _, r := range genRows(rng, 1000, 3) {
		d.Observe(r)
	}
	if !d.Drifted() {
		t.Fatal("shifted window not flagged")
	}

	// Drifted() resets the window: the next stable window must be clean.
	for _, r := range genRows(rng, 1000, 0) {
		d.Observe(r)
	}
	if d.Drifted() {
		t.Fatal("window state leaked across Drifted() calls")
	}
}

func TestInputDetectorMinSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewInputDetector(genRows(rng, 500, 0), 10)
	for _, r := range genRows(rng, 50, 10) { // wildly shifted but tiny
		d.Observe(r)
	}
	if d.Drifted() {
		t.Fatal("drift reported below MinSamples")
	}
}

func TestInputDetectorEmptyTraining(t *testing.T) {
	d := NewInputDetector(nil, 10)
	d.Observe([]float64{1})
	if d.Drifted() {
		t.Fatal("empty detector drifted")
	}
}

func TestSubscribePublish(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	train := genRows(rng, 2000, 0)
	d := NewInputDetector(train, 10)

	var moderate, major []float64
	d.Subscribe(0.1, func(psi float64) { moderate = append(moderate, psi) })
	d.Subscribe(0, func(psi float64) { major = append(major, psi) }) // 0 => Threshold (0.25)

	// Below MinSamples: Publish must stay silent however shifted.
	for _, r := range genRows(rng, 50, 10) {
		d.Observe(r)
	}
	d.Publish()
	if len(moderate) != 0 || len(major) != 0 {
		t.Fatalf("subscribers fired below MinSamples: moderate=%d major=%d", len(moderate), len(major))
	}

	// Stable window: still silent.
	for _, h := range d.hist {
		h.Reset()
	}
	for _, r := range genRows(rng, 1000, 0) {
		d.Observe(r)
	}
	if psi := d.Publish(); len(moderate) != 0 || len(major) != 0 {
		t.Fatalf("subscribers fired on stable window (psi=%v)", psi)
	}

	// Major shift: both thresholds cross, in registration order, with the
	// same PSI value Publish returns.
	for _, r := range genRows(rng, 1000, 4) {
		d.Observe(r)
	}
	got := d.Publish()
	if len(moderate) != 1 || len(major) != 1 {
		t.Fatalf("want both subscribers once, got moderate=%d major=%d (psi=%v)", len(moderate), len(major), got)
	}
	if moderate[0] != got || major[0] != got {
		t.Fatalf("subscriber psi %v/%v != returned %v", moderate[0], major[0], got)
	}

	// nil fn is ignored rather than stored.
	d.Subscribe(0.1, nil)
	if len(d.subs) != 2 {
		t.Fatalf("nil subscriber stored: %d subs", len(d.subs))
	}
}

func TestStrategies(t *testing.T) {
	if (Never{}).ShouldRetrain(5, 0.1, true) {
		t.Error("never retrained")
	}
	// Periodic fires at windows 0, N and 2N and not in between, whatever
	// the accuracy and drift signals say.
	p := Periodic{Every: 3}
	for w := 0; w <= 7; w++ {
		want := w == 0 || w == 3 || w == 6
		if got := p.ShouldRetrain(w, 1, false); got != want {
			t.Errorf("periodic at window %d: fired=%v, want %v", w, got, want)
		}
		if got := p.ShouldRetrain(w, 0, true); got != want {
			t.Errorf("periodic at window %d with bad signals: fired=%v, want %v", w, got, want)
		}
	}
	if (Periodic{}).ShouldRetrain(0, 0, true) {
		t.Error("zero-period periodic fired")
	}
	a := OnAccuracy{Below: 0.8}
	if !a.ShouldRetrain(0, 0.7, false) || a.ShouldRetrain(0, 0.9, true) {
		t.Error("accuracy strategy wrong")
	}
	if a.ShouldRetrain(0, math.NaN(), true) {
		t.Error("accuracy strategy fired without labels")
	}
	idr := OnInputDrift{}
	if !idr.ShouldRetrain(0, math.NaN(), true) || idr.ShouldRetrain(0, 0.1, false) {
		t.Error("input-drift strategy wrong")
	}
	for _, s := range []Strategy{Never{}, Periodic{Every: 1}, OnAccuracy{}, OnInputDrift{}} {
		if s.Name() == "" {
			t.Error("unnamed strategy")
		}
	}
}

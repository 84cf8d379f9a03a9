package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/core"
	"argus/internal/transport"
)

func TestPercentileRuleNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true},   // 10 samples beyond p99
		{999, 0.99, false},   // 9 beyond
		{10000, 0.999, true}, // 10 beyond p99.9
		{9999, 0.999, false},
		{20, 0.5, true},
		{19, 0.5, false},
		{0, 0.5, false},
	}
	for _, c := range cases {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %g) = %v, want %v (beyond=%d)", c.n, c.q, got, c.want, beyond(c.n, c.q))
		}
	}
	for n, want := range map[int]float64{5: 0, 100: 0.9, 1000: 0.99, 9999: 0.99, 10000: 0.999} {
		if got := highestSupported(n); got != want {
			t.Errorf("highestSupported(%d) = %g, want %g", n, got, want)
		}
	}
}

func TestTailReportsSampleCountWhenUnsupported(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := tail(xs, 0.99); err == nil || !strings.Contains(err.Error(), "500 samples") || !strings.Contains(err.Error(), "5 beyond") {
		t.Fatalf("tail(500 samples, p99) error = %v, want the sample and tail counts", err)
	}
	xs = make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	got, err := tail(xs, 0.99)
	if err != nil || got != 990 {
		t.Fatalf("tail(1..1000, p99) = %v, %v; want 990 (nearest rank, 10 beyond)", got, err)
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for q, want := range map[float64]float64{0: 1, 0.25: 1, 0.26: 2, 0.5: 2, 0.75: 3, 1: 4} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(%v, %g) = %g, want %g", s, q, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(7, 500, 2*time.Second)
	b := poissonSchedule(7, 500, 2*time.Second)
	c := poissonSchedule(8, 500, 2*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds gave identical schedules")
	}
	// 1000 expected arrivals; a Poisson count is within 5 sd of its mean.
	if n := len(a); math.Abs(float64(n)-1000) > 5*math.Sqrt(1000) {
		t.Fatalf("%d arrivals at 500/s over 2 s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due || a[i].due >= 2*time.Second {
			t.Fatalf("arrival %d due %v out of order or past the window", i, a[i].due)
		}
	}
}

// stubEndpoint is a subject's endpoint that records Do instead of running
// the round's Discover, so the driver can be tested without engines.
type stubEndpoint struct {
	transport.Endpoint
	dos int
}

func (e *stubEndpoint) Do(func()) { e.dos++ }

func TestLateRoundIsTimedFromItsDueTime(t *testing.T) {
	o1, o2 := cert.ID{1}, cert.ID{2}
	c := &cell{objects: []*objectSlot{{id: o1, level: backend.L2}, {id: o2, level: backend.L2}}}
	ep := &stubEndpoint{}
	s := &subjectSlot{cell: c, ep: ep}
	f := &fleet{w: &workload{rate: 1000}, objLevel: map[cert.ID]backend.Level{o1: backend.L2, o2: backend.L2},
		subjects: []*subjectSlot{s}}
	l := newLedger(f)
	l.begin, l.window = 0, time.Hour

	// The round was due 10 ms into the schedule; the generator gets to it
	// only after 60 ms, so it fires at least 50 ms late.
	const due, late = 10 * time.Millisecond, 60 * time.Millisecond
	time.Sleep(late)
	l.openLoop([]arrival{{due: due}}, 0)
	if ep.dos != 1 || l.arrivals != 1 || l.skipped != 0 {
		t.Fatalf("Do called %d times, %d arrivals, %d skipped; want the round fired once", ep.dos, l.arrivals, l.skipped)
	}
	if lag := l.lags[0]; lag < ms(late-due) {
		t.Fatalf("generator lag %.3f ms, want at least %.0f ms", lag, ms(late-due))
	}
	before := l.now()
	l.onDiscovery(s, core.Discovery{Round: s.round, Object: o1, Level: backend.L2})
	if len(l.samples) != 1 || l.completed != 1 {
		t.Fatalf("%d samples, %d completed, failures %v; want the one discovery timed", len(l.samples), l.completed, l.failures)
	}
	// Timed from the due time, the sample holds the generator's lag; timed
	// from the moment the round fired, it would be below before-late.
	if got, floor := l.samples[0].ms, ms(before-due); got < floor {
		t.Fatalf("latency %.3f ms, want at least %.3f ms: from the due time, including the lag", got, floor)
	}
}

func TestRatioBases(t *testing.T) {
	if got := ratio(3, 0); got != 0 {
		t.Fatalf("ratio over a zero base = %g, want 0", got)
	}
	// cpu 1000 µs/session: suite 600, cert 50, wire 10 of 800 µs in
	// handlers, so core is the remaining 140; GC adds 100.
	l := newCPULedger(1000, 800, 600, 50, 10, 100)
	if l.core != 140 {
		t.Fatalf("core = %g, want handlers minus suite, cert and wire = 140", l.core)
	}
	if l.explained != 900 {
		t.Fatalf("explained = %g, want handlers + gc = 900", l.explained)
	}
	if got := l.share(l.suite); got != 0.6 {
		t.Fatalf("suite share = %g, want 600/1000: the base is traced CPU per session", got)
	}
	if l.unexplained != 0.1 {
		t.Fatalf("unexplained = %g, want (1000-900)/1000", l.unexplained)
	}
	sum := l.share(l.suite) + l.share(l.cert) + l.share(l.wire) + l.share(l.core) + l.share(l.gc) + l.unexplained
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares plus unexplained = %g, want 1", sum)
	}
	// More handler time than CPU (handlers charged wall time) shows as a
	// negative residual, never clamped away.
	if l := newCPULedger(100, 150, 0, 0, 0, 0); l.unexplained != -0.5 || l.reconciled() {
		t.Fatalf("unexplained = %g, reconciled %v; want -0.5, not reconciled", l.unexplained, l.reconciled())
	}
	if !l.reconciled() {
		t.Fatalf("a 10%% residual is within the ±%g margin", reconcileMargin)
	}
	// Calibrated costs beyond the handler time drive core negative: the
	// ledger does not reconcile even when the totals happen to match.
	if l := newCPULedger(1000, 900, 800, 150, 10, 100); l.core >= 0 || l.reconciled() {
		t.Fatalf("core = %g, reconciled %v; want negative core, not reconciled", l.core, l.reconciled())
	}
}

func TestWantLevel(t *testing.T) {
	o1, o2, o3 := cert.ID{1}, cert.ID{2}, cert.ID{3}
	f := &fleet{objLevel: map[cert.ID]backend.Level{o1: backend.L1, o2: backend.L2, o3: backend.L3}}
	fresh, stale := &subjectSlot{}, &subjectSlot{stale: true}
	for _, c := range []struct {
		s    *subjectSlot
		o    cert.ID
		want backend.Level
	}{
		{fresh, o1, backend.L1}, {fresh, o2, backend.L2}, {fresh, o3, backend.L3},
		{stale, o1, backend.L1}, {stale, o2, backend.L2}, {stale, o3, backend.L2},
	} {
		if got := f.wantLevel(c.s, c.o); got != c.want {
			t.Errorf("wantLevel(stale=%v, %v) = %v, want %v", c.s.stale, f.objLevel[c.o], got, c.want)
		}
	}
	c := &cell{objects: make([]*objectSlot, 4), l1: 1}
	s := &subjectSlot{cell: c}
	if got := s.expectedRound(); got != 4 {
		t.Fatalf("live subject expects %d, want every object", got)
	}
	s.revoked = true
	if got := s.expectedRound(); got != 1 {
		t.Fatalf("revoked subject expects %d, want only the L1 objects", got)
	}
}

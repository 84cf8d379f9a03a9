package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"argus/internal/backend"
	"argus/internal/backendclient"
	"argus/internal/backendsvc"
	"argus/internal/cert"
	"argus/internal/core"
	"argus/internal/load"
	"argus/internal/obs"
	"argus/internal/suite"
)

// drainTimeout bounds the wait for rounds still in flight when a window or
// the warm-up ends; a round unfinished by then counts its missing sessions
// as failures.
const drainTimeout = 15 * time.Second

// standardRetry is the adaptive retry-wheel policy of load's `standard`
// profile — the one policy every workload uses.
func standardRetry() core.RetryPolicy { return load.Profiles()["standard"].Retry }

// ledger drives one fleet's rounds and checks every discovery against the
// ground truth. It is installed as the fleet's discovery and apply hooks.
type ledger struct {
	f      *fleet
	epoch  time.Time
	closed bool // a closed loop: each completed round re-arms its subject
	// stop ends closed-loop re-arming at the close of the window.
	stop atomic.Bool

	outstanding atomic.Int64 // rounds armed and not yet complete

	mu        sync.Mutex
	begin     time.Duration // the measured window is [begin, window)
	window    time.Duration
	samples   []sample // timed sessions
	armed     int64    // timed sessions armed
	completed int64    // timed sessions discovered correctly
	// doneInWindow counts every correct discovery inside the window,
	// including those of rounds armed before it opened: a closed loop's
	// steady-state throughput.
	doneInWindow int64
	failures     map[string]int64
	warmFailed   int64

	// generator-owned until the generator returns
	lags     []float64 // ms
	arrivals int64
	skipped  int64

	applyMu sync.Mutex
	applies map[cert.ID]*applyWait

	churn churnStats
}

// applyWait collects the per-object apply times of one revocation.
type applyWait struct {
	want int
	at   []time.Duration
	done chan struct{}
}

func newLedger(f *fleet) *ledger {
	l := &ledger{f: f, epoch: time.Now(), closed: f.w.rate == 0, failures: map[string]int64{}, applies: map[cert.ID]*applyWait{}}
	f.onDiscovery = l.onDiscovery
	f.onApply = l.onApply
	return l
}

func (l *ledger) now() time.Duration { return time.Since(l.epoch) }

func (l *ledger) fail(reason string, n int64) {
	if n > 0 {
		l.failures[reason] += n
	}
}

// armLocked opens the next round of s (s.mu held) and returns its expected
// discoveries.
func (l *ledger) armLocked(s *subjectSlot, start time.Duration, timed bool) int {
	exp := s.expectedRound()
	s.round++
	s.curRound.Store(int64(s.round))
	s.expected, s.got, s.seen = exp, 0, s.seen[:0]
	s.busy, s.timed, s.start, s.reaped = exp > 0, timed, start, false
	if exp > 0 {
		l.outstanding.Add(1)
	}
	if timed {
		l.mu.Lock()
		l.armed += int64(exp)
		l.mu.Unlock()
	}
	return exp
}

// fire issues the round's Discover on the subject's event loop. A round
// that expects nothing (a revoked subject in a cell without L1 objects) is
// declared complete at once so no retry deadline outlives it.
func (l *ledger) fire(s *subjectSlot, exp int) {
	eng := s.eng
	s.ep.Do(func() {
		// Discover fails only if the nonce source does; the round then
		// stays open and drain counts its sessions as missing.
		_ = eng.Discover(1)
		if exp == 0 {
			eng.CompleteRound()
		}
	})
}

// onDiscovery runs on the subject's event loop for every verified
// discovery and checks it: the current round, the ground-truth level, only
// L1 for a revoked subject, and each object exactly once per round.
func (l *ledger) onDiscovery(s *subjectSlot, d core.Discovery) {
	at := l.now()
	s.mu.Lock()
	reason := ""
	switch {
	case s.reaped && d.Round == s.round:
		// drain already charged this round's missing sessions
		s.mu.Unlock()
		return
	case !s.busy || d.Round != s.round:
		reason = "unexpected"
	case s.revoked && d.Level != backend.L1:
		reason = "revoked_saw_secure"
	case d.Level != l.f.wantLevel(s, d.Object):
		reason = "wrong_level"
	}
	for _, id := range s.seen {
		if reason == "" && id == d.Object {
			reason = "duplicate"
		}
	}
	timed, start := s.timed, s.start
	if reason != "" {
		s.mu.Unlock()
		l.mu.Lock()
		if timed {
			l.fail(reason, 1)
		} else {
			l.warmFailed++
		}
		l.mu.Unlock()
		return
	}
	s.seen = append(s.seen, d.Object)
	s.got++
	done := s.got == s.expected
	if done {
		s.busy = false
	}
	s.mu.Unlock()

	l.mu.Lock()
	begin := l.begin
	if at >= begin && at < l.window {
		l.doneInWindow++
	}
	if timed {
		// An open-loop session is timed from when its round was due, not
		// from when the generator fired it, so a stalled generator charges
		// its lag to every session it delayed.
		ms := float64(at-start) / float64(time.Millisecond)
		l.samples = append(l.samples, sample{ms: ms, lv: int(l.f.wantLevel(s, d.Object))})
		l.completed++
	}
	l.mu.Unlock()
	if timed {
		l.f.tr.session(s, d, start, at)
	}
	if !done {
		return
	}
	s.eng.CompleteRound()
	l.outstanding.Add(-1)
	if l.closed && !l.stop.Load() {
		now := l.now()
		s.mu.Lock()
		exp := l.armLocked(s, now, now >= begin)
		s.mu.Unlock()
		l.fire(s, exp)
	}
}

// onApply runs on an object's event loop when its agent applies a
// revocation of subject.
func (l *ledger) onApply(subject cert.ID) {
	at := l.now()
	l.applyMu.Lock()
	defer l.applyMu.Unlock()
	w, ok := l.applies[subject]
	if !ok {
		return
	}
	w.at = append(w.at, at)
	if len(w.at) == w.want {
		close(w.done)
	}
}

// drain waits for every armed round to finish, then charges each round
// still open with its missing sessions.
func (l *ledger) drain() {
	deadline := time.Now().Add(drainTimeout)
	for l.outstanding.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	for _, s := range l.f.snapshotSubjects() {
		s.mu.Lock()
		missing, timed := int64(0), s.timed
		if s.busy {
			missing = int64(s.expected - s.got)
			s.busy, s.reaped = false, true
		}
		s.mu.Unlock()
		l.mu.Lock()
		if timed {
			l.fail("missing", missing)
		} else {
			l.warmFailed += missing
		}
		l.mu.Unlock()
	}
}

// warmup runs one untimed round per subject, all at once, so verify caches
// and RTT estimators are warm before the first timed arrival.
func (l *ledger) warmup() error {
	for _, s := range l.f.snapshotSubjects() {
		s.mu.Lock()
		exp := l.armLocked(s, l.now(), false)
		s.mu.Unlock()
		l.fire(s, exp)
	}
	l.drain()
	if l.warmFailed > 0 {
		return fmt.Errorf("warm-up: %d sessions failed", l.warmFailed)
	}
	return nil
}

// openLoop fires the seeded schedule's rounds at their due times. Each
// arrival goes to the subject it names, or the next idle one when that
// subject is mid-round or being revoked; an arrival that finds no idle
// subject is skipped, never queued.
func (l *ledger) openLoop(sched []arrival, base time.Duration) {
	for _, a := range sched {
		due := base + a.due
		if wait := due - l.now(); wait > 0 {
			time.Sleep(wait)
		}
		l.arrivals++
		slots := l.f.snapshotSubjects()
		n := len(slots)
		first := int(a.pick % uint32(n))
		fired := false
		for i := 0; i < n && !fired; i++ {
			s := slots[(first+i)%n]
			s.mu.Lock()
			if s.busy || s.revoking {
				s.mu.Unlock()
				continue
			}
			exp := l.armLocked(s, due, true)
			s.mu.Unlock()
			at := l.now()
			l.lags = append(l.lags, float64(at-due)/float64(time.Millisecond))
			l.f.tr.fired(s, due, at)
			l.fire(s, exp)
			fired = true
		}
		if !fired {
			l.skipped++
		}
	}
}

// closedRamp spreads the closed loop's first rounds over a seeded order so
// the callers do not start in one synchronized burst, and closedSettle is
// how long the loop runs untimed before the window opens, so the window
// sees the steady state rather than the start-up transient.
const (
	closedRamp   = 500 * time.Millisecond
	closedSettle = 2 * time.Second
)

// rampClosed starts every subject, in a seeded order spread over the ramp,
// closedSettle before the window opens at base, and returns at base. Each
// subject re-arms itself on completion until the window closes; only
// rounds armed inside the window are timed.
func (l *ledger) rampClosed(seed uint64, base time.Duration) {
	rng := rand.New(rand.NewPCG(seed, 0x94d049bb133111eb))
	slots := l.f.snapshotSubjects()
	start := base - closedSettle
	for i, idx := range rng.Perm(len(slots)) {
		at := start + time.Duration(i)*closedRamp/time.Duration(len(slots))
		if wait := at - l.now(); wait > 0 {
			time.Sleep(wait)
		}
		s := slots[idx]
		s.mu.Lock()
		exp := l.armLocked(s, l.now(), false)
		s.mu.Unlock()
		l.fire(s, exp)
	}
	if wait := base - l.now(); wait > 0 {
		time.Sleep(wait)
	}
}

// churnStats are the write-path measurements of the churn workload.
type churnStats struct {
	revokes, adds   int
	revokeMs, svcMs []float64 // call into the backend → last apply; the /v1 call alone
	pushMs, applyMs []float64
	addMs           []float64
}

// churnLoop runs a steady, seeded stream of subject revocations and live
// subject adds beside discovery: one operation every period, alternating.
// Revoked subjects keep arriving and must find only L1 objects.
func (l *ledger) churnLoop(ctx context.Context, seed uint64, base, window, period time.Duration) error {
	rng := rand.New(rand.NewPCG(seed, 0xc2b2ae3d27d4eb4f))
	for k := 0; ; k++ {
		at := base + period/2 + time.Duration(k)*period
		if at >= base+window {
			return nil
		}
		if wait := at - l.now(); wait > 0 {
			time.Sleep(wait)
		}
		var err error
		if k%2 == 0 {
			err = l.revokeOne(ctx, rng)
		} else {
			err = l.addOne(ctx, rng, k)
		}
		if err != nil {
			return fmt.Errorf("churn op %d: %w", k, err)
		}
	}
}

// revokeOne revokes a live subject through the backend service and pushes
// the revocation to its cell's objects through the update distributor.
func (l *ledger) revokeOne(ctx context.Context, rng *rand.Rand) error {
	f := l.f
	slots := f.snapshotSubjects()
	var victim *subjectSlot
	for i, first := 0, rng.IntN(len(slots)); i < len(slots) && victim == nil; i++ {
		s := slots[(first+i)%len(slots)]
		s.mu.Lock()
		if !s.revoked && !s.revoking {
			s.revoking = true
			victim = s
		}
		s.mu.Unlock()
	}
	if victim == nil {
		return fmt.Errorf("no subject left to revoke")
	}
	// The victim's in-flight round finishes under the old rules.
	for deadline := time.Now().Add(drainTimeout); ; time.Sleep(200 * time.Microsecond) {
		victim.mu.Lock()
		busy := victim.busy
		victim.mu.Unlock()
		if !busy {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("victim round never finished")
		}
	}
	c := victim.cell
	w := &applyWait{want: len(c.objIDs), done: make(chan struct{})}
	l.applyMu.Lock()
	l.applies[victim.id] = w
	l.applyMu.Unlock()

	t0 := l.now()
	if _, err := f.svc.RevokeSubject(ctx, victim.id); err != nil {
		return err
	}
	t1 := l.now()
	f.mu.Lock()
	f.rekeyed = true
	f.mu.Unlock()
	if err := c.dist.RevokeSubject(victim.id, c.objIDs); err != nil {
		return err
	}
	t2 := l.now()
	select {
	case <-w.done:
	case <-time.After(drainTimeout):
		return fmt.Errorf("revocation not applied by every object")
	}
	l.applyMu.Lock()
	last := t2
	var applies []float64
	for _, a := range w.at {
		applies = append(applies, ms(a-t1))
		last = max(last, a)
	}
	l.applyMu.Unlock()
	victim.mu.Lock()
	victim.revoked, victim.revoking = true, false
	victim.mu.Unlock()
	l.f.tr.churnSpan("backendsvc.revoke", t0, t1)
	l.f.tr.churnSpan("update.push", t1, t2)
	l.mu.Lock()
	l.churn.revokes++
	l.churn.revokeMs = append(l.churn.revokeMs, ms(last-t0))
	l.churn.svcMs = append(l.churn.svcMs, ms(t1-t0))
	l.churn.pushMs = append(l.churn.pushMs, ms(t2-t1))
	l.churn.applyMs = append(l.churn.applyMs, applies...)
	l.mu.Unlock()
	return nil
}

// addOne registers, enrolls and provisions a new fellow through the backend
// service and attaches it to a seeded cell. A fellow added after a re-key
// holds a newer group key than the objects, so it sees L3 services at L2.
func (l *ledger) addOne(ctx context.Context, rng *rand.Rand, k int) error {
	f := l.f
	c := f.cells[rng.IntN(len(f.cells))]
	t0 := l.now()
	id, _, err := f.svc.RegisterSubject(ctx, fmt.Sprintf("add-%d", k), staffAttrs)
	if err != nil {
		return err
	}
	if err := f.svc.AddSubjectToGroup(ctx, id, f.group); err != nil {
		return err
	}
	prov, err := f.svc.ProvisionSubject(ctx, id)
	if err != nil {
		return err
	}
	t1 := l.now()
	f.mu.RLock()
	stale := f.rekeyed
	f.mu.RUnlock()
	f.attach(c, prov, stale)
	l.f.tr.churnSpan("backendsvc.add_subject", t0, t1)
	l.mu.Lock()
	l.churn.adds++
	l.churn.addMs = append(l.churn.addMs, ms(t1-t0))
	l.mu.Unlock()
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// backendEnv is the churn workload's backend service: a backendsvc store
// in the checkout behind a loopback /v1 listener, reached through one
// keep-alive HTTP connection. Each churn fleet gets its own, so a fleet
// shares the process with no other fleet's backend or WAL.
type backendEnv struct {
	dir    string
	store  *backendsvc.Store
	reg    *obs.Registry
	hs     *http.Server
	served chan struct{}
	base   string
	hc     *http.Client
}

func newBackendEnv(workdir string) (*backendEnv, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "churn-*")
	if err != nil {
		return nil, err
	}
	e := &backendEnv{dir: dir, reg: obs.NewRegistry(), served: make(chan struct{})}
	if e.store, err = backendsvc.OpenStore(dir, e.reg); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.store.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: backendsvc.NewServer(e.store, "bench-admin", e.reg).Handler()}
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	e.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return e, nil
}

// tenant creates the store's one tenant and a client for it.
func (e *backendEnv) tenant(shards int) (*backendsvc.Tenant, *backendclient.Client, error) {
	const name = "bench"
	tn, err := e.store.Create(name, suite.S128, shards)
	if err != nil {
		return nil, nil, err
	}
	return tn, backendclient.New(e.base, name, tn.AuthKey(), backendclient.WithHTTPClient(e.hc)), nil
}

// walAppends is the store's WAL append count so far.
func (e *backendEnv) walAppends() int64 {
	return int64(counterSum(e.reg.Snapshot(), obs.MBackendsvcWALAppends))
}

func (e *backendEnv) close() {
	e.hc.CloseIdleConnections()
	_ = e.hs.Close()
	<-e.served
	_ = e.store.Close()
	os.RemoveAll(e.dir)
}

// setup builds, provisions and warms one fleet for w: the in-process
// backend's batch APIs, or, for churn, a tenant of a fresh backend service
// in workdir over HTTP. The fleet owns that service and f.close stops it.
// A full GC first keeps the previous fleet's garbage out of the set-up time.
func setup(w *workload, workdir string, tr *tracer) (*fleet, *ledger, error) {
	f := &fleet{w: w, reg: obs.NewRegistry(), retry: standardRetry(), tr: tr}
	if w.churn {
		var err error
		if f.env, err = newBackendEnv(workdir); err != nil {
			return nil, nil, err
		}
	}
	runtime.GC()
	t0 := time.Now()
	l := newLedger(f)
	if tr != nil {
		tr.f, tr.epoch = f, l.epoch
	}
	var (
		sprovs []*backend.SubjectProvision
		oprovs []*backend.ObjectProvision
		err    error
	)
	if w.churn {
		ctx := context.Background()
		tn, client, err := f.env.tenant(w.cells)
		if err != nil {
			f.close()
			return nil, nil, err
		}
		f.svc, f.admin = client, tn.Backend().Admin()
		anchor, err := client.TrustAnchor(ctx)
		if err != nil {
			f.close()
			return nil, nil, err
		}
		if f.adminPub, err = anchor.PublicKey(); err != nil {
			f.close()
			return nil, nil, err
		}
		if sprovs, oprovs, f.group, f.cost, err = provisionRemote(ctx, w, client); err != nil {
			f.close()
			return nil, nil, err
		}
	} else {
		var b *backend.Backend
		if b, sprovs, oprovs, f.group, f.cost, err = provisionLocal(w, f.reg); err != nil {
			return nil, nil, err
		}
		f.svc, f.admin, f.adminPub = backend.NewLocal(b), b.Admin(), b.AdminPublic()
	}
	if err := f.assemble(sprovs, oprovs); err != nil {
		f.close()
		return nil, nil, err
	}
	if err := l.warmup(); err != nil {
		f.close()
		return nil, nil, err
	}
	f.cost.total = time.Since(t0)
	return f, l, nil
}

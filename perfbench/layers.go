package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"argus/internal/backend"
	"argus/internal/obs"
	"argus/internal/wire"
)

// reconcileMargin is the share of cpu_us_per_session that the layer self
// times may leave unexplained, either way, before the ledger fails the run.
// What falls outside the handlers — mailbox hand-offs, the Go scheduler,
// the generator, span recording — is not seen by any span. Twelve traced
// 30 s runs of the three open-loop workloads on a 2-vCPU host left
// residuals of −6.3 … +1.1 %; the margin is about twice the widest.
const reconcileMargin = 0.15

// counterSum sums every metric of the family whose labels include labels.
func counterSum(s *obs.Snapshot, name string, labels ...obs.Label) float64 {
	var v float64
	for i := range s.Metrics {
		m := &s.Metrics[i]
		if m.Name != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if m.Labels[l.Key] != l.Value {
				ok = false
			}
		}
		if ok {
			v += m.Value
		}
	}
	return v
}

// delta is a counter family's growth over the window.
func (ws *windowStats) delta(name string, labels ...obs.Label) float64 {
	return counterSum(ws.snap1, name, labels...) - counterSum(ws.snap0, name, labels...)
}

// cpuLedger is the per-session CPU attribution of one traced window, in
// µs per session. The base of every share is cpu, the traced window's
// process CPU per completed session.
type cpuLedger struct {
	cpu                         float64
	suite, cert, wire, core, gc float64
	handlers                    float64 // Σ Handle + After + Do time, before splitting
	explained, unexplained      float64
}

// reconciled reports whether the ledger accounts for the process CPU: the
// residual is within reconcileMargin, and the calibrated suite, cert and
// wire costs do not exceed the handler time they are carved from, which
// would leave core negative and hide a calibration error in it.
func (l cpuLedger) reconciled() bool {
	return l.core >= 0 && l.unexplained >= -reconcileMargin && l.unexplained <= reconcileMargin
}

// newCPULedger splits handler time into the calibrated suite, cert and wire
// costs and the engine's own remainder (core), adds GC CPU, and leaves the
// rest of the process CPU as the unexplained residual.
func newCPULedger(cpu, handlers, suite, cert, wire, gc float64) cpuLedger {
	l := cpuLedger{cpu: cpu, handlers: handlers, suite: suite, cert: cert, wire: wire, gc: gc}
	l.core = handlers - suite - cert - wire
	l.explained = handlers + gc
	l.unexplained = ratio(cpu-l.explained, cpu)
	return l
}

// share is a layer's share of the traced CPU per session.
func (l cpuLedger) share(us float64) float64 { return ratio(us, l.cpu) }

// layers computes every per-layer metric of a traced run, prints the layer
// tables, and returns the result.
func layers(w *workload, f *fleet, l *ledger, ws *windowStats, tr *tracer, u unitCosts, untracedCPU float64,
	sessions [][]span, spans []span, path string) (*result, error) {
	n := float64(ws.sessions)
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	op := func(o string) float64 { return ws.delta(obs.MCryptoOps, obs.L("op", o)) }

	// Frame accounting. Queries count at objects and responses at subjects;
	// the handle time of every frame, including broadcasts a subject only
	// decodes and drops, is engine CPU. A handler's wall time is its CPU
	// only while nothing preempts it: under saturation a handler that parks
	// (a GC assist, a contended lock) waits behind hundreds of runnable
	// goroutines. The ledger therefore charges each frame its kind's median
	// handle time, which such waits do not reach.
	var durs [2][nKinds][]float64
	tr.mu.Lock()
	for _, e := range tr.eps {
		for k := range e.durs {
			for _, d := range e.durs[k] {
				durs[e.role][k] = append(durs[e.role][k], float64(d)/1e3)
			}
		}
	}
	tr.mu.Unlock()
	medUs := func(r role, k wire.MsgType) float64 { return orZero(durs[r][k], 0.5) }
	var handleUs, frames, bytes float64
	for r := range tr.frames {
		for k := range tr.frames[r] {
			handleUs += float64(len(durs[r][k])) * medUs(role(r), wire.MsgType(k))
			frames += float64(tr.frames[r][k].n.Load())
			bytes += float64(tr.frames[r][k].bytes.Load())
		}
	}
	at := func(r role, k wire.MsgType) *frameStat { return &tr.frames[r][k] }
	que1, que2 := at(roleObject, wire.TQUE1), at(roleObject, wire.TQUE2)
	res1, res2 := at(roleSubject, wire.TRES1), at(roleSubject, wire.TRES2)

	// Verify cache: hits and misses by credential kind; without a cache the
	// engines verify every credential, so each check is executed.
	hit := func(kind string) float64 {
		return ws.delta(obs.MVerifyCacheEvents, obs.L("kind", kind), obs.L("result", "hit"))
	}
	miss := func(kind string) float64 {
		return ws.delta(obs.MVerifyCacheEvents, obs.L("kind", kind), obs.L("result", "miss"))
	}
	hits, misses := hit("cert")+hit("prof"), miss("cert")+miss("prof")
	pub := float64(tr.publicRES1.Load())
	certChecks := float64(res1.n.Load()) - pub + float64(que2.n.Load())
	profChecks := pub + float64(res2.n.Load()) + float64(que2.n.Load())
	certExec := max(0, certChecks-hit("cert"))
	profExec := max(0, profChecks-hit("prof"))

	verifies := max(0, op("verify")-hits)
	kex := op("kex_gen") + op("kex_shared")
	suiteUs := op("sign")*u.sign + verifies*u.verify + op("kex_gen")*u.kexGen + op("kex_shared")*u.kexShared +
		op("hmac")*u.mac + op("cipher")*u.cipher
	certUs := certExec*max(0, u.certVerify-u.verify) + profExec*max(0, u.profVerify-u.verify)
	var codecUs float64
	for k := 1; k < nKinds; k++ {
		handled := float64(tr.frames[roleSubject][k].n.Load() + tr.frames[roleObject][k].n.Load())
		codecUs += handled*u.decode[k] + float64(tr.sent[k].Load())*u.encode[k]
	}
	handlersUs := handleUs + float64(tr.timerNs.Load()+tr.doNs.Load())/1e3
	gcUs := (ws.rt1.gcCPU - ws.rt0.gcCPU) * 1e6
	tracedCPU := float64(ws.cpu) / float64(time.Microsecond) / n
	led := newCPULedger(tracedCPU, handlersUs/n, suiteUs/n, certUs/n, codecUs/n, gcUs/n)

	put("suite.sign_us", u.sign, "us")
	put("suite.verify_us", u.verify, "us")
	put("suite.kex_us", ratio(op("kex_gen")*u.kexGen+op("kex_shared")*u.kexShared, kex), "us")
	put("suite.mac_us", u.mac, "us")
	put("suite.cipher_us", u.cipher, "us")
	put("suite.sign_per_session", op("sign")/n, "count")
	put("suite.verify_per_session", verifies/n, "count")
	put("suite.kex_per_session", kex/n, "count")
	put("suite.busy_us_per_session", led.suite, "us")
	put("suite.share", led.share(led.suite), "ratio")

	put("cert.hit_ratio", ratio(hits, hits+misses), "ratio")
	put("cert.misses_per_session", (certExec+profExec)/n, "count")
	put("cert.verify_us", u.certVerify, "us")

	put("core.que1_us", medUs(roleObject, wire.TQUE1), "us")
	put("core.res1_us", medUs(roleSubject, wire.TRES1), "us")
	put("core.que2_us", medUs(roleObject, wire.TQUE2), "us")
	put("core.res2_us", medUs(roleSubject, wire.TRES2), "us")
	put("core.timer_us_per_session", float64(tr.timerNs.Load())/1e3/n, "us")
	put("core.busy_us_per_session", led.core, "us")
	put("core.retransmits_per_session", ws.delta(obs.MRetransmissions)/n, "count")
	put("core.expired_per_session", ws.delta(obs.MSessionsExpired)/n, "count")
	put("core.open_sessions_peak", float64(ws.openPeak), "count")

	var waits []float64
	for _, s := range spans {
		if s.Name == "transport.wait" {
			waits = append(waits, float64(s.End-s.Start)/1e3)
		}
	}
	put("transport.frames_per_session", frames/n, "count")
	put("transport.bytes_per_session", bytes/n, "B")
	put("transport.wait_p50_us", orZero(waits, 0.5), "us")
	put("transport.wait_p99_us", orZero(waits, 0.99), "us")
	put("transport.drops", ws.delta(obs.MTransportMailboxDrops), "count")

	meanBytes := func(fs *frameStat) float64 { return ratio(float64(fs.bytes.Load()), float64(fs.n.Load())) }
	put("wire.que1_bytes", meanBytes(que1), "B")
	put("wire.res1_bytes", meanBytes(res1), "B")
	put("wire.que2_bytes", meanBytes(que2), "B")
	put("wire.res2_bytes", meanBytes(res2), "B")
	put("wire.codec_us_per_session", led.wire, "us")

	put("runtime.gc_pause_ms", float64(ws.rt1.pauseNs-ws.rt0.pauseNs)/1e6, "ms")
	put("runtime.alloc_kb_per_session", float64(ws.rt1.allocs-ws.rt0.allocs)/1024/n, "KB")
	put("runtime.sched_p99_us", histQuantile(ws.rt0.sched, ws.rt1.sched, 0.99)*1e6, "us")
	put("runtime.goroutines", float64(ws.goroutines), "count")

	c := f.cost
	put("backend.register_subject_us", ratio(float64(c.registerSubjects)/1e3, float64(c.nSubjects)), "us")
	put("backend.register_object_us", ratio(float64(c.registerObjects)/1e3, float64(c.nObjects)), "us")
	put("backend.provision_us", ratio(float64(c.provision)/1e3, float64(c.nSubjects+c.nObjects)), "us")
	put("backend.setup_share", ratio(float64(c.registerSubjects+c.registerObjects+c.provision), float64(c.total)), "ratio")

	l.mu.Lock()
	ch := l.churn
	skipped, arrivals, lags := l.skipped, l.arrivals, l.lags
	failed, fails := int64(0), map[string]int64{}
	for k, v := range l.failures {
		failed += v
		fails[k] = v
	}
	armed := l.armed
	l.mu.Unlock()
	put("backendsvc.revoke_ms", orZero(ch.svcMs, 0.5), "ms")
	put("backendsvc.add_subject_ms", orZero(ch.addMs, 0.5), "ms")
	put("backendsvc.wal_appends_per_op", ratio(float64(ws.wal1-ws.wal0), float64(ch.revokes+ch.adds)), "count")
	put("update.push_ms", orZero(ch.pushMs, 0.5), "ms")
	put("update.apply_p50_ms", orZero(ch.applyMs, 0.5), "ms")
	put("update.apply_p99_ms", orZero(ch.applyMs, 0.99), "ms")
	put("revoke_p50_ms", orZero(ch.revokeMs, 0.5), "ms")
	put("revoke_p99_ms", orZero(ch.revokeMs, 0.99), "ms")

	if !l.closed {
		put("driver.lag_p99_ms", orZero(lags, 0.99), "ms")
	} else {
		// A closed loop has no schedule to fall behind; its lateness is the
		// wait from re-arming a subject to its Discover running.
		var dw []float64
		for _, s := range spans {
			if s.Name == "transport.do_wait" {
				dw = append(dw, float64(s.End-s.Start)/1e6)
			}
		}
		put("driver.lag_p99_ms", orZero(dw, 0.99), "ms")
	}
	put("driver.skipped_frac", ratio(float64(skipped), float64(arrivals)), "ratio")
	put("trace.overhead_frac", ratio(tracedCPU-untracedCPU, untracedCPU), "ratio")
	put("trace.unexplained_frac", led.unexplained, "ratio")

	// Case-7 length covertness: an L3 RES2 must be exactly as long as an L2
	// RES2, or an observer tells the levels apart by size alone.
	res2Len := map[backend.Level]map[int]int64{}
	for _, e := range tr.eps {
		for lv, m := range e.res2 {
			if res2Len[lv] == nil {
				res2Len[lv] = map[int]int64{}
			}
			for n, c := range m {
				res2Len[lv][n] += c
			}
		}
	}
	l2, l3 := lengths(res2Len[backend.L2]), lengths(res2Len[backend.L3])
	covert := len(l2) == 1 && len(l3) == 1 && l2[0] == l3[0]

	fmt.Printf("workload %s (traced): %s, GOMAXPROCS=%d, NumCPU=%d\n", w.name, shape(w), runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Printf("  %d sessions traced, failed %d of %d armed %v; spans in %s\n", ws.sessions, failed, armed, fails, path)
	fmt.Printf("  RES2 lengths: L2 %v, L3 %v -> length covertness %v\n", l2, l3, covert)
	fmt.Printf("  CPU ledger (µs per session; base: traced cpu_us_per_session %.1f, untraced %.1f, tracing overhead %.1f%%)\n",
		tracedCPU, untracedCPU, 100*ratio(tracedCPU-untracedCPU, untracedCPU))
	row := func(name string, us float64, count string) {
		fmt.Printf("    %-10s %9.1f µs  %6.1f%%  %s\n", name, us, 100*led.share(us), count)
	}
	row("suite", led.suite, fmt.Sprintf("sign %.2f, verify %.2f, kex %.2f, hmac %.2f, cipher %.2f per session",
		op("sign")/n, verifies/n, kex/n, op("hmac")/n, op("cipher")/n))
	row("cert", led.cert, fmt.Sprintf("%.2f credential verifications executed per session, hit ratio %.3f", (certExec+profExec)/n, ratio(hits, hits+misses)))
	row("wire", led.wire, fmt.Sprintf("%.1f frames per session", frames/n))
	row("core", led.core, "engine handlers, timers and Discover minus the three rows above")
	row("runtime", led.gc, "GC CPU")
	row("residual", led.cpu-led.explained, "mailboxes, scheduler, generator, tracing: not seen by any span")
	verdict := "reconciled"
	if led.core < 0 {
		verdict = "NOT reconciled: calibrated costs exceed handler time (core < 0)"
	} else if !led.reconciled() {
		verdict = "NOT reconciled"
	}
	fmt.Printf("  Σ layer self time = %.1f µs of %.1f µs; unexplained %.1f%% (margin ±%.0f%%): %s\n",
		led.explained, led.cpu, 100*led.unexplained, 100*reconcileMargin, verdict)
	printLatencyLedger(sessions)
	fmt.Println("  not measured from outside the layers: mailbox hand-off and scheduler CPU (in the residual);")
	fmt.Println("  WAL fsync time apart from /v1 handling (inside backendsvc.revoke_ms and add_subject_ms).")

	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-32s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	return &result{Correct: failed == 0 && covert && led.reconciled(), Attempted: max(armed, 1), Failed: failed, Metrics: m}, nil
}

// orZero is the nearest-rank q-quantile of xs, or 0 when there are none: a
// layer the workload does not exercise reads 0.
func orZero(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(sortedCopy(xs), q)
}

func lengths(m map[int]int64) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// printLatencyLedger prints where a session's wall time goes: the mean
// self time per session of each layer's spans, from the nested trace.
func printLatencyLedger(sessions [][]span) {
	if len(sessions) == 0 {
		return
	}
	self := map[string]float64{}
	var wall float64
	for _, ss := range sessions {
		st := selfTimes(ss)
		wall += float64(ss[0].End - ss[0].Start)
		for i, s := range ss {
			self[s.Name] += float64(st[i])
		}
	}
	n := float64(len(sessions))
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("  session wall time by span (self µs per session; mean session %.1f µs; round-level spans count once per session)\n", wall/n/1e3)
	for _, k := range names {
		fmt.Printf("    %-22s %9.1f µs  %6.1f%%\n", k, self[k]/n/1e3, 100*ratio(self[k], wall))
	}
}

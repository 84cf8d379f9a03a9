package core

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/groups"
	"argus/internal/obs"
	"argus/internal/suite"
	"argus/internal/transport"
	"argus/internal/wire"
)

// errUnbound is returned by Discover on an engine with no endpoint.
var errUnbound = errors.New("core: engine not bound to a transport endpoint")

// Subject is the subject-side discovery engine (the user's device). It
// implements transport.Handler: broadcast QUE1, collect RES1s, run the
// phase-2 handshake with every Level 2/3 responder, and report verified
// discoveries.
type Subject struct {
	prov    *backend.SubjectProvision
	version wire.Version
	costs   Costs
	ep      transport.Endpoint

	// activeGroup indexes prov.Memberships: the group key used for
	// MAC_{S,3} this round. Devices rotate keys across rounds (§VI-C).
	activeGroup int
	round       int
	rs          []byte
	que1Enc     []byte
	que1At      time.Duration // transport time of the current round's broadcast

	sessions map[sessionKey]*subjSession

	// results is the one piece of engine state external goroutines read while
	// the event loop runs (see the concurrency contract in core.go), so it is
	// mutex-guarded; pendingN mirrors len(sessions) for the same reason.
	resMu    sync.Mutex
	results  []Discovery
	pendingN atomic.Int64

	// vcache, when non-nil, memoizes CERT/PROF credential verifications (see
	// WithVerifyCache). All call sites go through it; a nil cache verifies.
	vcache *cert.VerifyCache

	// retry drives retransmission and session expiry under lossy networks;
	// the zero value keeps the one-shot seed behavior (see RetryPolicy).
	retry   RetryPolicy
	lastTTL int // hop TTL of the current round, for QUE1 rebroadcasts

	// wheel coalesces retry/expiry deadlines when retry.Adaptive is set; nil
	// on the legacy per-attempt timer path. rtt feeds its deadlines with the
	// observed handshake round-trip, and que1Timer is the current round's
	// pending rebroadcast (deferred while responses keep arriving).
	wheel     *timerWheel
	rtt       rttEstimator
	que1Timer *wheelEntry
	// que1Attempt is the probe-chain position the pending rebroadcast will
	// fire at. Round activity resets it to 1: Que1Retries bounds CONSECUTIVE
	// silent probes, not total probes per round, so a round stalled behind a
	// long compute backlog (every probe in the budget fired unanswered, then
	// late responses finally arrived) gets its recovery chain back instead of
	// being stranded with expired sessions and an exhausted budget.
	que1Attempt int
	// completedRound is the last round a harness declared done via
	// CompleteRound: handshake traffic still processes normally, but no new
	// retry deadlines are armed for it (a responder answering after the
	// declared quota — e.g. an object silently refusing a revoked subject —
	// must not leave a retransmission timer ticking toward a misfire).
	completedRound int

	// l1Recorded dedupes Level 1 discoveries within a round: fault injection
	// can deliver the same plaintext RES1 twice (link-layer duplication or a
	// QUE1 rebroadcast), and a Level 1 exchange has no session to anchor on.
	l1Recorded map[transport.Addr]bool
	// secRecorded maps an object address to the last round a secure (L2/L3)
	// discovery from it was recorded. Adaptive-path only: once a handshake
	// restart is possible (the object re-answers a rebroadcast after its
	// session expired), a late restart RES1 can arrive AFTER the original
	// handshake already completed — re-handshaking it would double-credit
	// the round. Rounds start at 1, so the zero value never collides.
	secRecorded map[transport.Addr]int

	tel *subjectTelemetry

	// OnDiscovery, if set, is invoked for every verified discovery, on the
	// engine's event loop. A hooked subject streams its discoveries: they go
	// to the hook only and are not also kept for Results, so a long-running
	// subject holds no per-discovery state. Set it before the first round.
	OnDiscovery func(Discovery)
}

type subjSession struct {
	objAddr transport.Addr
	ro      []byte // object nonce, distinguishes RES1 resends from restarts
	k2      []byte
	k3      []byte
	group   groups.ID
	ts      *wire.Transcript // subject-cut transcript
	que2    *wire.QUE2
	que2Enc []byte // cached encoding, resent verbatim on timeout/duplicate RES1
	round   int
	stamps  phaseStamps

	// Adaptive-path state: wheel entries for the pending retransmission and
	// the TTL expiry, and the transport time of the last QUE2 (re)send the
	// RTO horizon is measured from. All nil/zero on the legacy path.
	que2Timer *wheelEntry
	expiry    *wheelEntry
	sentAt    time.Duration
}

// NewSubject creates an engine from a backend provision, applying any
// construction options (see Option).
func NewSubject(prov *backend.SubjectProvision, version wire.Version, costs Costs, opts ...Option) *Subject {
	s := &Subject{
		prov:       prov,
		version:    version,
		costs:      costs,
		sessions:   make(map[sessionKey]*subjSession),
		l1Recorded: make(map[transport.Addr]bool),
	}
	eo := applyOptions(opts)
	if eo.hasRetry {
		s.retry = eo.retry
	}
	if eo.hasTel {
		s.instrument(eo.reg, eo.tracer)
	}
	s.vcache = eo.vcache
	if eo.ep != nil {
		s.Bind(eo.ep)
	}
	return s
}

// Bind attaches the engine to a transport endpoint and installs it as the
// endpoint's inbound handler. Call once, before the first Discover; engines
// constructed with WithEndpoint are already bound.
func (s *Subject) Bind(ep transport.Endpoint) {
	s.ep = ep
	if s.retry.Enabled() && s.retry.Adaptive {
		s.wheel = newTimerWheel(ep)
	}
	ep.Bind(s)
}

// PendingSessions returns the number of in-progress phase-2 handshakes —
// the leak the chaos tests assert returns to zero after SessionTTL. Safe to
// call from any goroutine (it reads a mirror the event loop maintains).
func (s *Subject) PendingSessions() int { return int(s.pendingN.Load()) }

// syncPending republishes len(sessions) after a mutation; event-loop only.
func (s *Subject) syncPending() { s.pendingN.Store(int64(len(s.sessions))) }

// instrument attaches a metrics registry and an optional span tracer.
// Telemetry is purely observational — it consumes no randomness and
// schedules no events, so instrumented and uninstrumented runs of the same
// seed are identical.
func (s *Subject) instrument(reg *obs.Registry, tr *obs.Tracer) {
	if reg == nil && tr == nil {
		s.tel = nil
		return
	}
	s.tel = newSubjectTelemetry(reg, tr, s.version)
}

// ID returns the subject's registered identity.
func (s *Subject) ID() cert.ID { return s.prov.ID }

// Refresh applies a re-provision (new PROF, rotated group keys). A changed
// trust anchor (backend re-keying) flushes the verification cache: results
// proven against the old anchor say nothing about the new one.
func (s *Subject) Refresh(prov *backend.SubjectProvision) {
	if !bytes.Equal(s.prov.CACert, prov.CACert) {
		s.vcache.Flush()
	}
	s.prov = prov
	if s.activeGroup >= len(prov.Memberships) {
		s.activeGroup = 0
	}
}

// Results returns all verified discoveries so far. Safe to call from any
// goroutine while the engine runs (see the contract in core.go). A subject
// with an OnDiscovery hook streams its discoveries to the hook instead, and
// its Results stays empty.
func (s *Subject) Results() []Discovery {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	return append([]Discovery(nil), s.results...)
}

// GroupCount returns how many group keys (incl. cover-up) the device holds.
func (s *Subject) GroupCount() int { return len(s.prov.Memberships) }

// NextGroup advances to the next group key for the following round (§VI-C:
// "her device can automatically use her group keys in turns"). It reports
// whether it wrapped around.
func (s *Subject) NextGroup() (wrapped bool) {
	if len(s.prov.Memberships) == 0 {
		return true
	}
	s.activeGroup++
	if s.activeGroup >= len(s.prov.Memberships) {
		s.activeGroup = 0
		return true
	}
	return false
}

// Discover starts one discovery round: broadcast QUE1 with a fresh R_S
// within ttl hops. Results accumulate as the transport delivers responses.
// Sessions left incomplete two or more rounds ago are pruned — their objects
// are out of range or declined to answer.
//
// Like every state-mutating engine method, Discover must run on the engine's
// event loop: call it inline when driving the simulator, or through
// Endpoint.Do on a concurrent transport.
func (s *Subject) Discover(ttl int) error {
	if s.ep == nil {
		return errUnbound
	}
	rs, err := suite.NewNonce(nil)
	if err != nil {
		return err
	}
	s.round++
	for k, sess := range s.sessions {
		if sess.round < s.round-1 {
			s.dropSessionTimers(sess)
			delete(s.sessions, k)
		}
	}
	if s.wheel != nil && s.que1Timer != nil {
		s.wheel.cancel(s.que1Timer)
		s.que1Timer = nil
	}
	s.syncPending()
	s.rs = rs
	s.que1At = s.ep.Now()
	s.lastTTL = ttl
	s.l1Recorded = make(map[transport.Addr]bool)
	s.tel.roundStarted()
	q := &wire.QUE1{Version: s.version, RS: rs}
	s.que1Enc = q.Encode()
	s.ep.Broadcast(s.que1Enc, ttl)
	if s.retry.Enabled() && s.retry.Que1Retries > 0 {
		if s.wheel != nil {
			s.armQue1Adaptive(1)
		} else {
			s.scheduleQue1Retry(1)
		}
	}
	return nil
}

// scheduleQue1Retry arms the attempt-th QUE1 rebroadcast. The rebroadcast is
// unconditional — the subject cannot know which objects exist, so it cannot
// tell "everyone answered" from "the rest lost my query" — but it is cheap:
// objects suppress the duplicate via R_S, and objects with a stalled
// handshake use it as a cue to resend RES1.
func (s *Subject) scheduleQue1Retry(attempt int) {
	round := s.round
	s.ep.After(s.retry.delay(attempt), func() {
		if s.round != round {
			return // a newer round superseded this one
		}
		s.tel.retransmit(msgQUE1)
		s.ep.Broadcast(s.que1Enc, s.lastTTL)
		if attempt < s.retry.Que1Retries {
			s.scheduleQue1Retry(attempt + 1)
		}
	})
}

// armQue1Adaptive arms the attempt-th QUE1 rebroadcast on the timer wheel.
// Unlike the legacy chain, the deadline is a quiescence detector: every
// response handled this round defers it to now + RTO (see noteActivity), so
// while discovery traffic keeps flowing the rebroadcast never fires. On a
// lossless network the round completes inside one deferral window and the
// entry dies canceled (CompleteRound) or superseded by the next round.
//
// The fire reads s.que1Attempt rather than its captured attempt so that
// noteActivity's chain reset takes effect on an already-armed probe.
func (s *Subject) armQue1Adaptive(attempt int) {
	if s.completedRound == s.round {
		return
	}
	s.que1Attempt = attempt
	round := s.round
	s.que1Timer = s.wheel.schedule(s.retry.delay(attempt), func() {
		s.que1Timer = nil
		if s.round != round {
			return // a newer round superseded this one
		}
		s.tel.retransmit(msgQUE1)
		s.ep.Broadcast(s.que1Enc, s.lastTTL)
		if s.que1Attempt < s.retry.Que1Retries {
			s.armQue1Adaptive(s.que1Attempt + 1)
		}
	})
}

// noteActivity records that current-round discovery traffic is still
// arriving: the pending QUE1 rebroadcast (a quiescence probe, not a response
// timeout) is pushed out to now + RTO, and the probe chain is reset to
// attempt 1 — activity is proof the round is live, so the retry budget
// guards consecutive silence, not lifetime probes. If the budget was already
// exhausted while the network (or a compute backlog) sat on the responses,
// the chain is re-armed: late traffic revives recovery for whatever sessions
// expired during the stall. The configured schedule remains the floor —
// deferTo never moves a deadline earlier.
func (s *Subject) noteActivity() {
	if s.wheel == nil || s.completedRound == s.round {
		return
	}
	s.que1Attempt = 1
	switch {
	case s.que1Timer != nil:
		s.wheel.deferTo(s.que1Timer, s.ep.Now()+s.rtt.rto(s.retry.Timeout))
	case s.retry.Que1Retries > 0:
		s.armQue1Adaptive(1)
	}
}

// dropSessionTimers cancels a session's pending wheel entries (no-op on the
// legacy path, whose timers guard on session liveness instead).
func (s *Subject) dropSessionTimers(sess *subjSession) {
	if s.wheel == nil {
		return
	}
	if sess.que2Timer != nil {
		s.wheel.cancel(sess.que2Timer)
		sess.que2Timer = nil
	}
	if sess.expiry != nil {
		s.wheel.cancel(sess.expiry)
		sess.expiry = nil
	}
}

// CompleteRound tells the engine the caller knows the current round is done
// — every expected responder answered — so its pending retransmission
// deadlines (the QUE1 rebroadcast probe and per-session QUE2 retries) are
// dropped before they can fire, and no new retry deadline is armed for the
// rest of the round: a handshake that progresses after the declaration (an
// object silently refusing a revoked subject, a straggler RES1) completes
// or expires without ever retransmitting. Only a harness that tracks expected response
// counts can know this; the protocol itself cannot distinguish "everyone
// answered" from "the rest lost my query", which is why the timers exist.
// Sessions and their TTL expiries are untouched: completion accounting and
// GC semantics stay exactly as without the call. No-op on the legacy
// (non-adaptive) path. Event-loop only, like every state-mutating method.
func (s *Subject) CompleteRound() {
	if s.wheel == nil {
		return
	}
	s.completedRound = s.round
	if s.que1Timer != nil {
		s.wheel.cancel(s.que1Timer)
		s.que1Timer = nil
	}
	for _, sess := range s.sessions {
		if sess.round == s.round && sess.que2Timer != nil {
			s.wheel.cancel(sess.que2Timer)
			sess.que2Timer = nil
		}
	}
}

// DiscoverAll runs one round per held group key, rotating keys between
// rounds, so every authorized covert service is found (§VI-C). settle is
// called between rounds to let in-flight traffic drain: pass a closure
// running the simulator's event loop (func() { net.Run(0) }), or a bounded
// wall-clock wait on a real transport. A nil settle starts rounds
// back-to-back.
func (s *Subject) DiscoverAll(ttl int, settle func()) error {
	for i := 0; i < max(1, len(s.prov.Memberships)); i++ {
		if err := s.Discover(ttl); err != nil {
			return err
		}
		if settle != nil {
			settle()
		}
		s.NextGroup()
	}
	return nil
}

// Handle implements transport.Handler.
func (s *Subject) Handle(from transport.Addr, payload []byte) {
	msg, err := wire.Decode(payload)
	if err != nil {
		s.tel.malformedDrop()
		return
	}
	switch m := msg.(type) {
	case *wire.RES1:
		s.handleRES1(from, m, payload)
	case *wire.RES2:
		s.handleRES2(from, m)
	}
}

func (s *Subject) handleRES1(from transport.Addr, m *wire.RES1, raw []byte) {
	switch m.Mode {
	case wire.ModePublic:
		s.handlePublicRES1(from, m)
	case wire.ModeSecure:
		s.handleSecureRES1(from, m, raw)
	}
}

// handlePublicRES1 processes a Level 1 response: verify the admin signature
// on the plaintext profile (the subject's only compute-intensive operation in
// Level 1, Fig 6b).
func (s *Subject) handlePublicRES1(from transport.Addr, m *wire.RES1) {
	prof, err := cert.DecodeProfile(m.Prof)
	if err != nil || prof.Kind != cert.RoleObject {
		return
	}
	if err := s.vcache.VerifyProfileAnchored(prof, m.Prof, s.prov.CACert, s.prov.AdminPub, time.Now()); err != nil {
		return
	}
	if s.l1Recorded[from] {
		return // duplicate delivery of this round's plaintext RES1
	}
	s.l1Recorded[from] = true
	if s.wheel != nil {
		s.rtt.observe(s.ep.Now() - s.que1At)
		s.noteActivity()
	}
	st := phaseStamps{session: s.tel.session(), que1At: s.que1At, res1At: s.ep.Now()}
	s.tel.count(opsVerify, 1)
	s.ep.Compute(s.costs.Verify, func() {
		s.tel.sessionDone(st, L1, from, s.version, s.ep.Now())
		s.record(Discovery{
			Object:  prof.Entity,
			Node:    from,
			Level:   L1,
			Profile: prof,
			At:      s.ep.Now(),
			Round:   s.round,
		})
	})
}

// handleSecureRES1 runs the subject side of phase 2: authenticate the
// object, establish K2 (and K3 from the active group key), and send QUE2.
func (s *Subject) handleSecureRES1(from transport.Addr, m *wire.RES1, raw []byte) {
	if s.rs == nil {
		return // no discovery in progress
	}
	if s.wheel != nil && s.secRecorded[from] == s.round {
		return // already credited this object this round: stale restart echo
	}
	if sess, ok := s.sessions[mkSessionKey(from, s.rs)]; ok {
		if s.wheel == nil || bytes.Equal(sess.ro, m.RO) {
			// Duplicate RES1 for a live handshake (link-layer duplication, or
			// the object resent it after a QUE1 rebroadcast). Deriving a fresh
			// KEX here would desync K2 with an object that already consumed
			// our QUE2, deadlocking the session until expiry — so never
			// re-handshake. On the legacy schedule the duplicate usually
			// means our QUE2 was lost, so it is resent verbatim. On the
			// adaptive path the session's own RTO timer owns QUE2
			// retransmission — resending here too turns one congested-start
			// quiescence probe into a probe→RES1→QUE2→RES2 echo storm across
			// the whole fleet; the duplicate is recorded as round activity
			// and nothing more.
			if s.wheel != nil {
				s.noteActivity()
			} else if s.retry.Enabled() && sess.que2Enc != nil {
				s.tel.retransmit(msgQUE2)
				s.ep.Send(from, sess.que2Enc)
			}
			return
		}
		// Fresh R_O under the same R_S: the object restarted the handshake
		// after its session aged out, so the state our cached QUE2's
		// signature covers no longer exists — resending it can only be
		// rejected. Supersede the doomed session and handshake anew.
		s.dropSessionTimers(sess)
		delete(s.sessions, mkSessionKey(from, s.rs))
		s.syncPending()
	}
	if s.wheel != nil {
		s.rtt.observe(s.ep.Now() - s.que1At)
		s.noteActivity()
	}
	info, err := s.vcache.VerifyCert(s.prov.CACert, m.CertO, s.prov.Strength)
	if err != nil || info.Role != cert.RoleObject {
		return
	}
	signed := m.AppendSignedPart(wire.GetScratch(), s.rs)
	sigOK := info.Public.Verify(signed, m.Sig)
	wire.PutScratch(signed)
	if !sigOK {
		return // forged or replayed RES1
	}
	kex, err := suite.NewKeyExchange(s.prov.Strength, nil)
	if err != nil {
		return
	}
	preK, err := kex.Shared(m.KEXMO)
	if err != nil {
		return
	}
	k2 := suite.SessionKey2(preK, s.rs, m.RO)

	q := &wire.QUE2{
		Version: s.version,
		RS:      s.rs,
		ProfS:   s.prov.Profile.Encode(),
		CertS:   s.prov.CertDER,
		KEXMS:   kex.Public(),
	}
	// The QUE2 signature input doubles as the transcript prefix: build it
	// once in pooled scratch, sign it, seed the session transcript from it.
	// (The transcript is retained for the session's lifetime, so it gets its
	// own buffer; the scratch goes straight back to the pool.)
	sigIn := wire.AppendSigInputQUE2(wire.GetScratch(), s.que1Enc, raw, q)
	sig, err := s.prov.Key.Sign(sigIn)
	if err != nil {
		wire.PutScratch(sigIn)
		return
	}
	q.Sig = sig

	ts := wire.NewTranscript(len(sigIn) + len(sig))
	ts.Add(sigIn)
	ts.Add(sig)
	wire.PutScratch(sigIn)
	tsHash := ts.Hash()
	q.MACS2 = suite.FinishedMAC(k2, suite.LabelSubjectFinished, tsHash)

	sess := &subjSession{objAddr: from, ro: append([]byte(nil), m.RO...), k2: k2, ts: ts, round: s.round}
	sess.stamps = phaseStamps{session: s.tel.session(), secure: true, que1At: s.que1At, res1At: s.ep.Now()}
	extraHMACs := 0
	if s.version != wire.V10 && len(s.prov.Memberships) > 0 {
		// v2.0: MAC_{S,3} is attached only when performing Level 3 discovery,
		// i.e. when the subject actually holds a real group key — the
		// composition leak §VI-B describes. v3.0: always attached; subjects
		// without sensitive attributes use their cover-up key, so every QUE2
		// looks the same.
		mem := s.prov.Memberships[s.activeGroup%len(s.prov.Memberships)]
		if s.version == wire.V30 || !mem.CoverUp {
			k3 := suite.SessionKey3(k2, mem.Key, s.rs, m.RO)
			q.MACS3 = suite.FinishedMAC(k3, suite.LabelSubjectFinished, tsHash)
			sess.k3 = k3
			sess.group = mem.Group
			extraHMACs = 2 // K3 derivation + MAC_{S,3}
		}
	}
	sess.que2 = q
	key := mkSessionKey(from, s.rs)
	s.sessions[key] = sess
	s.syncPending()
	if s.retry.Enabled() {
		s.scheduleExpiry(key, sess)
	}

	// Fig 6b subject cost in Level 2/3: 1 signing, 3 verifications (CERT_O,
	// KEXM_O signature, and later PROF_O), 2 ECDH operations. The PROF_O
	// verification and decryption are charged at RES2 time.
	cost := 2*s.costs.Verify + s.costs.KexGen + s.costs.KexShared +
		s.costs.Sign + (2+time.Duration(extraHMACs))*s.costs.HMAC
	if s.tel != nil {
		s.tel.count(opsVerify, 2)
		s.tel.count(opsKexGen, 1)
		s.tel.count(opsKexShared, 1)
		s.tel.count(opsSign, 1)
		s.tel.count(opsHMAC, int64(2+extraHMACs))
	}
	s.ep.Compute(cost, func() {
		sess.stamps.que2At = s.ep.Now()
		enc := q.Encode()
		sess.que2Enc = enc
		sess.sentAt = s.ep.Now()
		s.ep.Send(from, enc)
		if s.retry.Enabled() && s.retry.Que2Retries > 0 {
			if s.wheel != nil {
				s.armQue2Adaptive(key, sess, 1, s.rtt.rto(s.retry.delay(1)))
			} else {
				s.scheduleQue2Retry(key, 1)
			}
		}
	})
}

// scheduleQue2Retry arms the attempt-th QUE2 retransmission for the session
// under key. The timer is a no-op once the session completed (verified RES2)
// or expired.
func (s *Subject) scheduleQue2Retry(key sessionKey, attempt int) {
	s.ep.After(s.retry.delay(attempt), func() {
		sess, ok := s.sessions[key]
		if !ok || sess.que2Enc == nil {
			return
		}
		s.tel.retransmit(msgQUE2)
		s.ep.Send(sess.objAddr, sess.que2Enc)
		if attempt < s.retry.Que2Retries {
			s.scheduleQue2Retry(key, attempt+1)
		}
	})
}

// armQue2Adaptive arms a QUE2 retransmission deadline on the wheel. The
// wait starts at the configured backoff but never undercuts the observed
// round-trip horizon, and a deadline that fires early (the estimator grew
// after arming) re-arms for the remainder instead of retransmitting — on a
// lossless network the verified RES2 cancels the entry first and the wire
// never sees a duplicate QUE2.
func (s *Subject) armQue2Adaptive(key sessionKey, sess *subjSession, attempt int, wait time.Duration) {
	if s.completedRound == s.round && sess.round == s.round {
		return // round declared done: the answer is either in flight or refused
	}
	sess.que2Timer = s.wheel.schedule(wait, func() {
		sess.que2Timer = nil
		if cur, ok := s.sessions[key]; !ok || cur != sess || sess.que2Enc == nil {
			return
		}
		horizon := s.rtt.rto(s.retry.delay(attempt))
		if due := sess.sentAt + horizon; due > s.ep.Now() {
			s.armQue2Adaptive(key, sess, attempt, due-s.ep.Now())
			return
		}
		s.tel.retransmit(msgQUE2)
		s.ep.Send(sess.objAddr, sess.que2Enc)
		sess.sentAt = s.ep.Now()
		if attempt < s.retry.Que2Retries {
			next := attempt + 1
			s.armQue2Adaptive(key, sess, next, s.rtt.rto(s.retry.delay(next)))
		}
	})
}

// scheduleExpiry garbage-collects the session at SessionTTL if it has not
// completed: under total loss nothing else would ever delete it, and a
// leaked session both holds memory and blocks the object's duplicate
// suppression from converging. The pointer comparison protects a newer
// session that reused the key (same peer, same R_S — only possible across
// rounds with a nonce collision, but cheap to be exact about).
func (s *Subject) scheduleExpiry(key sessionKey, sess *subjSession) {
	expire := func() {
		if cur, ok := s.sessions[key]; ok && cur == sess {
			s.dropSessionTimers(sess)
			delete(s.sessions, key)
			s.syncPending()
			s.tel.sessionExpired()
		}
	}
	if s.wheel != nil {
		// On the wheel the expiry is a heap entry, not a live transport
		// timer, and completion cancels it — 20k concurrent sessions hold
		// one armed timer instead of 20k. Expiries are never deferred.
		sess.expiry = s.wheel.schedule(s.retry.ttl(), expire)
		return
	}
	s.ep.After(s.retry.ttl(), expire)
}

// handleRES2 completes the handshake: determine which key the object used
// (K2 → Level 2 face, K3 → Level 3 fellow), verify, decrypt, and verify the
// admin signature on the received PROF variant.
func (s *Subject) handleRES2(from transport.Addr, m *wire.RES2) {
	// RES2 carries no R_S echo, so locate the pending session by peer,
	// preferring the most recent round if several are outstanding.
	var key sessionKey
	var sess *subjSession
	for k, c := range s.sessions {
		if c.objAddr == from && (sess == nil || c.round > sess.round) {
			key, sess = k, c
		}
	}
	if sess == nil {
		// Orphaned RES2: our session expired before the answer arrived. The
		// payload is unusable, but it is still live round traffic — let it
		// defer (or revive) the quiescence probe so the rebroadcast chain
		// restarts the handshake instead of stranding the round.
		s.noteActivity()
		return
	}
	if !s.retry.Enabled() {
		delete(s.sessions, key)
		s.syncPending()
	}
	sess.stamps.res2At = s.ep.Now()
	if s.wheel != nil {
		s.noteActivity()
	}

	toHash := transcriptOHash(sess.ts, sess.que2, m.Ciphertext)

	var level Level
	var sk []byte
	var group groups.ID
	switch {
	// "S first tries to verify it with K2 ... Otherwise she uses K3" (§VI-A).
	case suite.VerifyMAC(sess.k2, suite.LabelObjectFinished, toHash, m.MACO):
		level, sk = L2, sess.k2
	case sess.k3 != nil && suite.VerifyMAC(sess.k3, suite.LabelObjectFinished, toHash, m.MACO):
		level, sk, group = L3, sess.k3, sess.group
	default:
		// Neither key verifies: corrupted or not for us. Under retry the
		// session stays pending — a QUE2 retransmission will fetch a clean
		// copy; the MAC guarantees any verified RES2 is byte-authentic.
		return
	}
	// An authenticated RES2 completes the session; a later duplicate finds
	// no session and is dropped, making delivery effectively exactly-once.
	if s.wheel != nil {
		s.rtt.observe(sess.stamps.res2At - sess.stamps.que2At)
		s.dropSessionTimers(sess)
		if s.secRecorded == nil {
			s.secRecorded = make(map[transport.Addr]int)
		}
		s.secRecorded[from] = sess.round
	}
	delete(s.sessions, key)
	s.syncPending()

	plain, err := suite.DecryptProfile(sk, m.Ciphertext)
	if err != nil {
		return
	}
	prof, err := cert.DecodeProfile(plain)
	if err != nil || prof.Kind != cert.RoleObject {
		return
	}
	if err := s.vcache.VerifyProfileAnchored(prof, plain, s.prov.CACert, s.prov.AdminPub, time.Now()); err != nil {
		return // service information is admin-signed end to end
	}

	cost := 2*s.costs.HMAC + s.costs.Cipher + s.costs.Verify
	if s.tel != nil {
		s.tel.count(opsHMAC, 2)
		s.tel.count(opsCipher, 1)
		s.tel.count(opsVerify, 1)
	}
	s.ep.Compute(cost, func() {
		s.tel.sessionDone(sess.stamps, level, from, s.version, s.ep.Now())
		s.record(Discovery{
			Object:  prof.Entity,
			Node:    from,
			Level:   level,
			Group:   uint64(group),
			Profile: prof,
			At:      s.ep.Now(),
			Round:   sess.round,
		})
	})
}

func (s *Subject) record(d Discovery) {
	if s.OnDiscovery != nil {
		s.OnDiscovery(d)
		return
	}
	s.resMu.Lock()
	s.results = append(s.results, d)
	s.resMu.Unlock()
}

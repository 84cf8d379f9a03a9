package core

import (
	"bytes"
	"sync/atomic"
	"time"

	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/obs"
	"argus/internal/suite"
	"argus/internal/transport"
	"argus/internal/wire"
)

// Object is the object-side discovery engine: one per IoT device on the
// ground network. It implements transport.Handler and answers QUE1/QUE2 per
// its level and protocol version.
type Object struct {
	prov    *backend.ObjectProvision
	version wire.Version
	costs   Costs
	ep      transport.Endpoint

	// sessions holds the L2/L3 handshakes awaiting QUE2, with everything
	// QUE2 verification needs. Once the outcome is fixed (RES2 built,
	// silence remembered, or the L1 RES1 sent) the entry moves to answered,
	// which keeps only what an idempotent resend needs.
	sessions map[sessionKey]*objSession
	answered map[sessionKey]answeredSession
	gen      uint64              // last session generation handed out
	seen     map[sessionKey]bool // duplicate-query suppression via R_S (§IV-B)
	revoked  map[cert.ID]bool
	retry    RetryPolicy // zero value: one-shot seed behavior (see RetryPolicy)
	tel      *objectTelemetry

	// wheel coalesces session expiries onto one armed timer when
	// retry.Adaptive is set; nil on the legacy per-session timer path.
	wheel *timerWheel

	// pendingN mirrors len(sessions)+len(answered) for cross-goroutine reads
	// (core.go contract); vcache memoizes credential verifications
	// (WithVerifyCache).
	pendingN atomic.Int64
	vcache   *cert.VerifyCache
}

// Resource bounds. DoS resistance is a non-goal of the paper (§III), but an
// unbounded session table would let any broadcaster exhaust object memory;
// constrained objects cap pending handshakes and periodically forget old
// duplicate-detection state.
//
// maxPendingSessions is the door: a QUE1 arriving while that many L2/L3
// handshakes await their QUE2 is refused before any crypto runs. Answered
// sessions shrink to resend entries (1005 B against 2315 B when they kept
// the full handshake state; BenchmarkSessionTableBytes measures both), so
// they get their own, larger bound, sized so a full answered table stays
// within the memory of 256 full sessions. maxAnsweredSessions caps pending
// plus answered together: every pending handshake reserves the answered
// slot its QUE2 will need, so answering never has to evict, and a QUE1
// arriving at the bound is refused the same way.
const (
	maxPendingSessions  = 256
	maxAnsweredSessions = 576
	maxSeenQueries      = 4096
)

// objSession is a Level 2/3 handshake awaiting QUE2.
type objSession struct {
	rs      []byte
	ro      []byte
	kex     *suite.KeyExchange
	que1Enc []byte
	res1Enc []byte // cached RES1 (nil while its compute is queued)

	gen    uint64      // identity for the expiry callback
	expiry *wheelEntry // the TTL deadline; adaptive path only
}

// answeredSession is a session whose outcome is fixed. The object never
// learns whether the subject received the answer, so it keeps just enough
// to resend it: a duplicate query means the subject lost our answer, and
// the cached encoding goes out again verbatim — resends must be
// byte-identical or MACs over the transcript would break, and re-running
// the response path would leak through timing. The peer is in the key.
type answeredSession struct {
	// resend is the cached RES1 of a Level 1 answer or the RES2 of a secure
	// one. A nil RES2 is a remembered silence, or a RES2 whose compute is
	// still queued; either way a duplicate QUE2 gets no answer.
	resend []byte
	public bool   // Level 1: resent on duplicate QUE1, never on QUE2
	gen    uint64 // identity for the expiry callback
}

// NewObject creates an engine from a backend provision, applying any
// construction options (see Option). version selects the protocol iteration
// (v3.0 for the full system).
func NewObject(prov *backend.ObjectProvision, version wire.Version, costs Costs, opts ...Option) *Object {
	o := &Object{
		prov:     prov,
		version:  version,
		costs:    costs,
		sessions: make(map[sessionKey]*objSession),
		answered: make(map[sessionKey]answeredSession),
		seen:     make(map[sessionKey]bool),
		revoked:  make(map[cert.ID]bool),
	}
	for _, id := range prov.Revoked {
		o.revoked[id] = true
	}
	eo := applyOptions(opts)
	if eo.hasRetry {
		o.retry = eo.retry
	}
	if eo.hasTel {
		o.instrument(eo.reg)
	}
	o.vcache = eo.vcache
	if eo.ep != nil {
		o.Bind(eo.ep)
	}
	return o
}

// Bind attaches the engine to a transport endpoint and installs it as the
// endpoint's inbound handler. Call once, before traffic flows; engines
// constructed with WithEndpoint are already bound.
func (o *Object) Bind(ep transport.Endpoint) {
	o.ep = ep
	if o.retry.Enabled() && o.retry.Adaptive {
		o.wheel = newTimerWheel(ep)
	}
	ep.Bind(o)
}

// PendingSessions returns the number of sessions held: handshakes awaiting
// QUE2 plus answered sessions kept for idempotent resends. It reaches zero
// only once every answered session has aged out, which is what drain
// barriers wait for. Safe to call from any goroutine (it reads a mirror the
// event loop maintains).
func (o *Object) PendingSessions() int { return int(o.pendingN.Load()) }

// syncPending republishes the table sizes after a mutation; event-loop only.
func (o *Object) syncPending() {
	o.pendingN.Store(int64(len(o.sessions) + len(o.answered)))
}

// instrument attaches a metrics registry. Like the subject's, object
// telemetry is purely observational and preserves fixed-seed runs.
func (o *Object) instrument(reg *obs.Registry) {
	if reg == nil {
		o.tel = nil
		return
	}
	o.tel = newObjectTelemetry(reg)
}

// ID returns the object's registered identity.
func (o *Object) ID() cert.ID { return o.prov.ID }

// Name returns the object's registered name.
func (o *Object) Name() string { return o.prov.Name }

// Level returns the object's secrecy level. The object keeps this to itself
// (§IV-A); it is exposed here for experiment bookkeeping only.
func (o *Object) Level() Level { return o.prov.Level }

// Refresh applies a re-provision (after backend churn: policy changes, group
// re-keying, revocation notifications). Cache hygiene: a changed trust anchor
// flushes the verification cache wholesale, and every subject revoked in the
// new provision is individually invalidated, so a blacklisted peer's warm
// credentials can never satisfy the next handshake.
func (o *Object) Refresh(prov *backend.ObjectProvision) {
	if !bytes.Equal(o.prov.CACert, prov.CACert) {
		o.vcache.Flush()
	}
	o.prov = prov
	o.revoked = make(map[cert.ID]bool, len(prov.Revoked))
	for _, id := range prov.Revoked {
		o.revoked[id] = true
		o.vcache.InvalidateEntity(id)
	}
}

// Revoke adds a subject to the object's local blacklist (a backend
// notification arriving on the ground, §VIII) and drops the subject's cached
// credential verifications.
func (o *Object) Revoke(subject cert.ID) {
	o.revoked[subject] = true
	o.vcache.InvalidateEntity(subject)
}

// Handle implements transport.Handler.
func (o *Object) Handle(from transport.Addr, payload []byte) {
	msg, err := wire.Decode(payload)
	if err != nil {
		// Malformed traffic (noise, or fault-injected corruption) is dropped,
		// but no longer silently: the counter makes corruption storms visible.
		o.tel.malformedDrop()
		return
	}
	switch m := msg.(type) {
	case *wire.QUE1:
		o.handleQUE1(from, m, payload)
	case *wire.QUE2:
		o.handleQUE2(from, m)
	}
}

func (o *Object) handleQUE1(from transport.Addr, m *wire.QUE1, raw []byte) {
	if len(m.RS) != suite.NonceSize {
		return
	}
	key := mkSessionKey(from, m.RS)
	if o.seen[key] {
		// A flooded QUE1 arriving via another path is ignored; but under
		// retry, a duplicate for a session still awaiting its QUE2 means the
		// subject likely lost our RES1 — resend the cached bytes (a Level 1
		// answer is resent the same way: the public path has no QUE2 to
		// drive retransmission). A duplicate whose session already aged out
		// entirely is a restart cue, not a flood echo: the subject is still
		// rebroadcasting past a full SessionTTL, so suppressing it would
		// strand the round forever (both sides expired, nothing left to
		// resend). Clear the dedup mark and run the full fresh-QUE1 path —
		// the same stance the coarse seen reset below takes, with QUE2
		// signature freshness as the real replay guard. Adaptive-only: the
		// static schedule keeps the seed's byte-exact suppression behavior.
		sess, pending := o.sessions[key]
		ans, answered := o.answered[key]
		if pending || answered || o.wheel == nil {
			o.tel.que1Result(resultDuplicate)
			var resend []byte
			switch {
			case !o.retry.Enabled():
			case pending:
				resend = sess.res1Enc
			case ans.public:
				resend = ans.resend
			}
			if resend != nil {
				o.tel.retransmit(msgRES1)
				o.ep.Send(from, resend)
			}
			return
		}
		delete(o.seen, key)
	}
	if len(o.seen) >= maxSeenQueries {
		// Coarse reset: old R_S values have long completed or timed out;
		// replays of them are still caught by the signature freshness check.
		o.seen = make(map[sessionKey]bool)
	}
	o.seen[key] = true
	if len(o.sessions) >= maxPendingSessions ||
		len(o.sessions)+len(o.answered) >= maxAnsweredSessions {
		o.tel.que1Result(resultRefused)
		return // refuse new handshakes until held ones complete or age out
	}
	// A fresh session replaces any older one under the same key (reachable
	// only after the coarse seen reset).
	delete(o.answered, key)
	o.gen++
	gen := o.gen

	if o.prov.Level == L1 {
		// Level 1: return the signed profile in plaintext. No
		// compute-intensive operation on the object (Fig 6b).
		res := &wire.RES1{
			Version: o.version,
			Mode:    wire.ModePublic,
			Prof:    o.prov.PublicProfile.Encode(),
		}
		o.tel.que1Result(resultPublic)
		enc := res.Encode()
		if o.retry.Enabled() {
			// Born answered: cache the answer for duplicate-QUE1 resends.
			o.answered[key] = answeredSession{resend: enc, public: true, gen: gen}
			o.syncPending()
			o.scheduleGC(key, gen, o.answeredTTL(o.retry.ttl()))
		}
		o.ep.Send(from, enc)
		return
	}

	// Level 2/3: respond with handshake material and await QUE2.
	ro, err := suite.NewNonce(nil)
	if err != nil {
		return
	}
	kex, err := suite.NewKeyExchange(o.prov.Strength, nil)
	if err != nil {
		return
	}
	res := &wire.RES1{
		Version: o.version,
		Mode:    wire.ModeSecure,
		RO:      ro,
		CertO:   o.prov.CertDER,
		KEXMO:   kex.Public(),
	}
	signed := res.AppendSignedPart(wire.GetScratch(), m.RS)
	sig, err := o.prov.Key.Sign(signed)
	wire.PutScratch(signed)
	if err != nil {
		return
	}
	res.Sig = sig
	sess := &objSession{
		rs:      append([]byte(nil), m.RS...),
		ro:      ro,
		kex:     kex,
		que1Enc: append([]byte(nil), raw...),
		gen:     gen,
	}
	o.sessions[key] = sess
	o.syncPending()
	if o.retry.Enabled() {
		sess.expiry = o.scheduleGC(key, gen, o.retry.ttl())
	}

	cost := o.costs.KexGen + o.costs.Sign
	o.tel.que1Result(resultHandshake)
	o.tel.count(opsKexGen, 1)
	o.tel.count(opsSign, 1)
	o.ep.Compute(cost, func() {
		sess.res1Enc = res.Encode()
		o.ep.Send(from, sess.res1Enc)
	})
}

func (o *Object) handleQUE2(from transport.Addr, m *wire.QUE2) {
	key := mkSessionKey(from, m.RS)
	sess, ok := o.sessions[key]
	if !ok {
		ans, ok := o.answered[key]
		if !ok {
			// No live session for (peer, R_S): a replayed transcript, or a
			// QUE2 retransmission that outlived the session TTL. Silence
			// either way — answering would confirm the service exists — but
			// count it so replay storms are visible to the adversary harness.
			o.tel.que2Result(resultOrphan)
			return
		}
		// Duplicate QUE2: our RES2 was lost (or is still in flight). The
		// outcome is already fixed — resend the cached bytes verbatim; a
		// remembered silence stays silent. Never re-run the response path:
		// fresh crypto would desync the transcript MACs, and a second
		// compute charge would be a timing tell.
		if !ans.public && ans.resend != nil {
			o.tel.retransmit(msgRES2)
			o.ep.Send(from, ans.resend)
		}
		return
	}
	if o.prov.Level == L1 {
		return
	}
	if !o.retry.Enabled() {
		// One-shot mode: the session is consumed by its first QUE2. Under
		// retry it instead stays pending on verification failure (the QUE2
		// may have been corrupted in flight — a clean retransmission must
		// still be able to complete) and is marked answered on success.
		delete(o.sessions, key)
		o.syncPending()
	}

	// Authenticate the subject: CERT chains to the admin, signature covers
	// the whole transcript, and the freshness of R_O defeats replay.
	info, err := o.vcache.VerifyCert(o.prov.CACert, m.CertS, o.prov.Strength)
	if err != nil || info.Role != cert.RoleSubject {
		o.tel.que2Result(resultRejected)
		return
	}
	if o.revoked[info.ID] {
		o.tel.que2Result(resultRejected)
		return // de-authorized subjects stop seeing services (§VIII)
	}
	// The signature input doubles as the transcript prefix (§V): build it
	// once in pooled scratch; if the signature holds, it seeds the transcript
	// cut below.
	sigInput := wire.AppendSigInputQUE2(wire.GetScratch(), sess.que1Enc, sess.res1Enc, m)
	if !info.Public.Verify(sigInput, m.Sig) {
		wire.PutScratch(sigInput)
		o.tel.que2Result(resultRejected)
		return
	}
	ts := wire.NewTranscript(len(sigInput) + len(m.Sig))
	ts.Add(sigInput)
	ts.Add(m.Sig)
	wire.PutScratch(sigInput)
	// ts is transient on the object side: every exit below releases it.

	prof, err := cert.DecodeProfile(m.ProfS)
	if err != nil || prof.Kind != cert.RoleSubject || prof.Entity != info.ID {
		ts.Release()
		o.tel.que2Result(resultRejected)
		return
	}
	if err := o.vcache.VerifyProfileAnchored(prof, m.ProfS, o.prov.CACert, o.prov.AdminPub, time.Now()); err != nil {
		ts.Release()
		o.tel.que2Result(resultRejected)
		return // PROF must be admin-signed: attributes cannot be self-claimed
	}

	// Key establishment.
	preK, err := sess.kex.Shared(m.KEXMS)
	if err != nil {
		ts.Release()
		o.tel.que2Result(resultRejected)
		return
	}
	k2 := suite.SessionKey2(preK, sess.rs, sess.ro)
	tsHash := ts.Hash()
	if !suite.VerifyMAC(k2, suite.LabelSubjectFinished, tsHash, m.MACS2) {
		ts.Release()
		o.tel.que2Result(resultRejected)
		return // handshake failure
	}

	// Level 3: test fellowship by verifying MAC_{S,3} against each group
	// key the object serves (§VI-A, §VI-C).
	var fellowVariant *backend.ObjectVariant
	var k3 []byte
	if o.prov.Level == L3 && len(m.MACS3) > 0 && o.version != wire.V10 {
		for i := range o.prov.Variants {
			v := &o.prov.Variants[i]
			if !v.IsCovert() {
				continue
			}
			cand := suite.SessionKey3(k2, v.GroupKey, sess.rs, sess.ro)
			if suite.VerifyMAC(cand, suite.LabelSubjectFinished, tsHash, m.MACS3) {
				fellowVariant, k3 = v, cand
				break
			}
		}
	}

	// Build the response. The virtual compute cost is charged identically on
	// every path — the paper's "constant response time" countermeasure to
	// timing attacks (§VI-B): verification work that a path skips is waited
	// out instead.
	cost := 2*o.costs.Verify + // CERT_S, SIG_S
		o.costs.Verify + // PROF_S admin signature
		o.costs.KexShared +
		o.costs.HMAC + // MAC_{S,2}
		o.costs.Cipher + o.costs.HMAC // RES2 ciphertext + MAC_{O,X}
	if o.version != wire.V10 && o.prov.Level == L3 {
		cost += time.Duration(o.covertVariantCount()) * 2 * o.costs.HMAC // K3 derivations + MAC_{S,3} trials
	}
	if o.tel != nil {
		o.tel.count(opsVerify, 3)
		o.tel.count(opsKexShared, 1)
		hmacs := int64(2) // MAC_{S,2} verify + MAC_{O,X}
		if o.version != wire.V10 && o.prov.Level == L3 {
			hmacs += int64(o.covertVariantCount()) * 2
		}
		o.tel.count(opsHMAC, hmacs)
		o.tel.count(opsCipher, 1)
	}

	var res *wire.RES2
	switch {
	case fellowVariant != nil:
		// Level 3 face: MAC_{O,3} and PROF encrypted under K3.
		res = o.buildRES2(ts, m, k3, fellowVariant.Profile)
		o.tel.que2Result(resultFellow)
	default:
		// Level 2 face (for true Level 2 objects and for Level 3 objects
		// answering non-fellows in v3.0). v2.0 Level 3 objects instead answer
		// with their Level 3 face unconditionally — the composition leak the
		// paper describes (§VI-B) and our attack tests exploit.
		if o.version == wire.V20 && o.prov.Level == L3 {
			v := o.firstCovertVariant()
			if v == nil {
				ts.Release()
				o.tel.que2Result(resultSilent)
				o.answer(key, sess) // remembered silence: duplicates stay silent
				return
			}
			kFirst := suite.SessionKey3(k2, v.GroupKey, sess.rs, sess.ro)
			res = o.buildRES2(ts, m, kFirst, v.Profile)
			o.tel.que2Result(resultFellow)
			break
		}
		v := o.matchVariant(prof)
		if v == nil {
			ts.Release()
			o.tel.que2Result(resultSilent)
			o.answer(key, sess) // remembered silence: duplicates stay silent
			return              // no policy admits this subject: silence, not a hint
		}
		res = o.buildRES2(ts, m, k2, v.Profile)
		o.tel.que2Result(resultL2)
	}
	ts.Release()
	if res == nil {
		return
	}
	o.answer(key, sess)
	gen := sess.gen
	o.tel.response(cost, len(res.Ciphertext))
	o.ep.Compute(cost, func() {
		enc := res.Encode()
		if ans, ok := o.answered[key]; ok && ans.gen == gen {
			ans.resend = enc
			o.answered[key] = ans
		}
		o.ep.Send(from, enc)
	})
}

// answer fixes a pending handshake's outcome: the session leaves the
// pending table (freeing its door slot) and only resend state stays, under
// one expiry. The caller fills in the RES2 bytes once they are encoded; a
// silent outcome leaves them nil. In one-shot mode the first QUE2 already
// consumed the session and nothing is kept.
func (o *Object) answer(key sessionKey, sess *objSession) {
	if !o.retry.Enabled() {
		return
	}
	delete(o.sessions, key)
	o.answered[key] = answeredSession{gen: sess.gen}
	o.syncPending()
	if o.wheel != nil {
		// Replace the full-TTL deadline (and with it the last reference to
		// the handshake state) by the answered one, never later than the
		// session's original TTL.
		o.wheel.cancel(sess.expiry)
		o.scheduleGC(key, sess.gen, o.answeredTTL(sess.expiry.at-o.ep.Now()))
	}
	// Legacy path: the After armed at admission still fires at SessionTTL
	// and finds the answered entry by its generation.
}

// answeredTTL bounds how long an answered session is kept, given the time
// left on its session TTL. On the adaptive path it is at most half the TTL:
// an answered session holds no handshake liveness — it exists solely to
// serve idempotent duplicate resends — so its retention is a resend-service
// window, not a liveness window, and halving it halves how long the fleet's
// session tables (and a drain barrier waiting on them) trail the last wave.
// The legacy path keeps the full TTL.
func (o *Object) answeredTTL(left time.Duration) time.Duration {
	if half := o.retry.ttl() / 2; o.wheel != nil && half < left {
		return half
	}
	return left
}

// scheduleGC garbage-collects session gen under key after ttl, whichever
// table holds it by then: the object never learns whether the subject
// received its answer, so answered state can only age out. The generation
// check makes a stale callback a no-op once the key was reused (see
// Subject.scheduleExpiry for the same rationale). It returns the wheel
// entry on the adaptive path and nil on the legacy per-session timer path.
func (o *Object) scheduleGC(key sessionKey, gen uint64, ttl time.Duration) *wheelEntry {
	expire := func() {
		if cur, ok := o.sessions[key]; ok && cur.gen == gen {
			delete(o.sessions, key)
		} else if ans, ok := o.answered[key]; ok && ans.gen == gen {
			delete(o.answered, key)
		} else {
			return
		}
		o.syncPending()
		o.tel.sessionExpired()
	}
	if o.wheel != nil {
		// One armed timer for the whole session table instead of one per
		// session. Expiries are never deferred — TTL semantics are exact.
		return o.wheel.schedule(ttl, expire)
	}
	o.ep.After(ttl, expire)
	return nil
}

// buildRES2 encrypts the profile variant under the session key and computes
// MAC_{O,X} over the object-side transcript cut.
func (o *Object) buildRES2(ts *wire.Transcript, m *wire.QUE2, key []byte, prof *cert.Profile) *wire.RES2 {
	ct, err := suite.EncryptProfile(key, prof.Encode(), nil)
	if err != nil {
		return nil
	}
	mac := suite.FinishedMAC(key, suite.LabelObjectFinished, transcriptOHash(ts, m, ct))
	return &wire.RES2{Version: o.version, Ciphertext: ct, MACO: mac}
}

// matchVariant returns the first Level 2 variant whose predicate matches the
// subject's non-sensitive attributes (pred_i order fixed by the backend).
func (o *Object) matchVariant(prof *cert.Profile) *backend.ObjectVariant {
	for i := range o.prov.Variants {
		v := &o.prov.Variants[i]
		if v.IsCovert() {
			continue
		}
		if v.Pred.Eval(prof.Attrs) {
			return v
		}
	}
	return nil
}

func (o *Object) firstCovertVariant() *backend.ObjectVariant {
	for i := range o.prov.Variants {
		if o.prov.Variants[i].IsCovert() {
			return &o.prov.Variants[i]
		}
	}
	return nil
}

func (o *Object) covertVariantCount() int {
	n := 0
	for i := range o.prov.Variants {
		if o.prov.Variants[i].IsCovert() {
			n++
		}
	}
	return n
}

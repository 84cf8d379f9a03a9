package core

// Object session lifecycle: a handshake awaiting QUE2 holds full handshake
// state and counts against the pending door; once answered it shrinks to a
// resend entry under one expiry and counts against the answered bound only.
// Every test here drives the engines by direct Handle calls on a hand-run
// clock, so each frame and each expiry is deterministic.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/groups"
	"argus/internal/suite"
	"argus/internal/transport"
	"argus/internal/wire"
)

// handEP is an endpoint whose frames are recorded instead of delivered. Its
// clock and timers are shared by every endpoint of one handWorld.
type handEP struct {
	*fakeClockEP
	addr transport.Addr
	out  [][]byte
}

func (e *handEP) Addr() transport.Addr { return e.addr }

func (e *handEP) Send(_ transport.Addr, p []byte) {
	e.out = append(e.out, append([]byte(nil), p...))
}

func (e *handEP) Broadcast(p []byte, _ int) { e.Send("", p) }

// take returns and clears the frames sent since the last take.
func (e *handEP) take() [][]byte {
	out := e.out
	e.out = nil
	return out
}

// handWorld is a backend with engines attached to hand-driven endpoints:
// staff subject alice (a fellow of one secret group) and an object of each
// kind the tests need.
type handWorld struct {
	t     testing.TB
	b     *backend.Backend
	clock *fakeClockEP
	vc    *cert.VerifyCache
	retry RetryPolicy
	group groups.ID

	alice *Subject
	sep   *handEP
}

func newHandWorld(t testing.TB, retry RetryPolicy) *handWorld {
	t.Helper()
	b, err := backend.New(suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	b.AddPolicy(attr.MustParse("position=='staff'"), attr.MustParse("type=='device'"), []string{"use"})
	w := &handWorld{t: t, b: b, clock: &fakeClockEP{}, vc: cert.NewVerifyCache(0), retry: retry}
	sid, _, err := b.RegisterSubject("alice", attr.MustSet("position=staff"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := b.Groups.CreateGroup("fellows")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddSubjectToGroup(sid, g.ID()); err != nil {
		t.Fatal(err)
	}
	w.group = g.ID()
	sprov, err := b.ProvisionSubject(sid)
	if err != nil {
		t.Fatal(err)
	}
	w.sep = &handEP{fakeClockEP: w.clock, addr: "alice"}
	w.alice = NewSubject(sprov, wire.V30, Costs{},
		WithEndpoint(w.sep), WithRetry(retry), WithVerifyCache(w.vc))
	return w
}

// object registers and attaches one object. kind "device" matches alice's
// policy; any other kind is answered with silence at QUE2. A Level 3 object
// serves alice's group covertly.
func (w *handWorld) object(name string, level Level, kind string) (*Object, *handEP) {
	return w.objectOn(w.clock, name, level, kind)
}

// objectOn is object with the object's timers on their own clock.
func (w *handWorld) objectOn(clock *fakeClockEP, name string, level Level, kind string) (*Object, *handEP) {
	w.t.Helper()
	oid, _, err := w.b.RegisterObject(name, level, attr.MustSet("type="+kind), []string{"use"})
	if err != nil {
		w.t.Fatal(err)
	}
	if level == L3 {
		if err := w.b.AddCovertService(oid, w.group, []string{"use", "covert"}); err != nil {
			w.t.Fatal(err)
		}
	}
	oprov, err := w.b.ProvisionObject(oid)
	if err != nil {
		w.t.Fatal(err)
	}
	oep := &handEP{fakeClockEP: clock, addr: transport.Addr(name)}
	o := NewObject(oprov, wire.V30, Costs{},
		WithEndpoint(oep), WithRetry(w.retry), WithVerifyCache(w.vc))
	return o, oep
}

// transcript is one hand-run round between alice and one object.
type transcript struct {
	que1, res1, que2, res2 []byte // res2 nil: the object stayed silent
}

// handshake runs one discovery round of alice against o alone.
func (w *handWorld) handshake(o *Object, oep *handEP) transcript {
	w.t.Helper()
	var tr transcript
	if err := w.alice.Discover(1); err != nil {
		w.t.Fatal(err)
	}
	tr.que1 = w.only(w.sep, "QUE1")
	o.Handle(w.sep.addr, tr.que1)
	tr.res1 = w.only(oep, "RES1")
	w.alice.Handle(oep.addr, tr.res1)
	if o.Level() == L1 {
		return tr
	}
	tr.que2 = w.only(w.sep, "QUE2")
	o.Handle(w.sep.addr, tr.que2)
	if out := oep.take(); len(out) == 1 {
		tr.res2 = out[0]
		w.alice.Handle(oep.addr, tr.res2)
	} else if len(out) > 1 {
		w.t.Fatalf("object sent %d frames for one QUE2", len(out))
	}
	return tr
}

func (w *handWorld) only(ep *handEP, what string) []byte {
	w.t.Helper()
	out := ep.take()
	if len(out) != 1 {
		w.t.Fatalf("%s sent %d frames, want one %s", ep.addr, len(out), what)
	}
	return out[0]
}

// rawQUE1 sends o a QUE1 with a fresh nonce from peer and returns what o
// sent back (nothing when refused).
func rawQUE1(o *Object, oep *handEP, peer transport.Addr) [][]byte {
	rs, _ := suite.NewNonce(nil)
	o.Handle(peer, (&wire.QUE1{Version: wire.V30, RS: rs}).Encode())
	return oep.take()
}

func TestAnsweredSessionKeepsOnlyResendState(t *testing.T) {
	for _, level := range []Level{L2, L3} {
		t.Run(fmt.Sprintf("L%d", level), func(t *testing.T) {
			w := newHandWorld(t, adaptiveRetry())
			o, oep := w.object("dev", level, "device")
			tr := w.handshake(o, oep)
			if tr.res2 == nil {
				t.Fatal("no RES2 for a policy-admitted subject")
			}
			if res := w.alice.Results(); len(res) != 1 || res[0].Level != level {
				t.Fatalf("alice discovered %+v, want one L%d", res, level)
			}
			if len(o.sessions) != 0 || len(o.answered) != 1 {
				t.Fatalf("pending %d, answered %d; want 0 and 1", len(o.sessions), len(o.answered))
			}
			for _, ans := range o.answered {
				if ans.public || !bytes.Equal(ans.resend, tr.res2) {
					t.Fatalf("answered entry %+v does not cache the RES2 sent", ans)
				}
			}
			if got := o.wheel.pending(); got != 1 {
				t.Fatalf("%d live wheel entries for one answered session, want 1", got)
			}
			if got := o.PendingSessions(); got != 1 {
				t.Fatalf("PendingSessions = %d, want 1 (answered sessions count)", got)
			}
			// Answered retention is half the TTL from the answer.
			half := w.retry.ttl() / 2
			w.clock.advanceTo(half - time.Millisecond)
			if len(o.answered) != 1 {
				t.Fatal("answered session expired before SessionTTL/2")
			}
			w.clock.advanceTo(half)
			if len(o.answered) != 0 || o.PendingSessions() != 0 || o.wheel.pending() != 0 {
				t.Fatalf("after SessionTTL/2: answered %d, PendingSessions %d, wheel %d; want all 0",
					len(o.answered), o.PendingSessions(), o.wheel.pending())
			}
		})
	}
}

// TestLegacyAnsweredExpiresAtSessionTTL: the static schedule keeps an
// answered session until the SessionTTL counted from its QUE1, as before
// the split.
func TestLegacyAnsweredExpiresAtSessionTTL(t *testing.T) {
	w := newHandWorld(t, DefaultRetry())
	o, oep := w.object("dev", L2, "device")
	w.clock.advanceTo(time.Second) // admission at t=1s
	if tr := w.handshake(o, oep); tr.res2 == nil {
		t.Fatal("no RES2")
	}
	if len(o.answered) != 1 {
		t.Fatalf("answered = %d, want 1", len(o.answered))
	}
	w.clock.advanceTo(time.Second + w.retry.ttl() - time.Millisecond)
	if len(o.answered) != 1 {
		t.Fatal("answered session expired before SessionTTL")
	}
	w.clock.advanceTo(time.Second + w.retry.ttl())
	if o.PendingSessions() != 0 {
		t.Fatalf("PendingSessions = %d after SessionTTL, want 0", o.PendingSessions())
	}
}

func TestAnsweredDuplicatesResendIdentically(t *testing.T) {
	w := newHandWorld(t, adaptiveRetry())

	for _, level := range []Level{L2, L3} {
		o, oep := w.object(fmt.Sprintf("dev-%d", level), level, "device")
		tr := w.handshake(o, oep)
		o.Handle(w.sep.addr, tr.que2)
		if got := w.only(oep, "RES2 resend"); !bytes.Equal(got, tr.res2) {
			t.Fatalf("L%d: duplicate QUE2 got a different RES2", level)
		}
		// A duplicate QUE1 for an answered secure session is a flood echo.
		o.Handle(w.sep.addr, tr.que1)
		if out := oep.take(); len(out) != 0 {
			t.Fatalf("L%d: duplicate QUE1 after the answer drew %d frames", level, len(out))
		}
	}

	vault, vep := w.object("vault", L2, "vault")
	tr := w.handshake(vault, vep)
	if tr.res2 != nil {
		t.Fatal("vault answered a subject no policy admits")
	}
	if len(vault.answered) != 1 || len(vault.sessions) != 0 {
		t.Fatalf("silence not remembered: pending %d, answered %d", len(vault.sessions), len(vault.answered))
	}
	vault.Handle(w.sep.addr, tr.que2)
	if out := vep.take(); len(out) != 0 {
		t.Fatalf("remembered silence answered a duplicate QUE2 with %d frames", len(out))
	}

	thermo, tep := w.object("thermo", L1, "thermometer")
	tr = w.handshake(thermo, tep)
	thermo.Handle(w.sep.addr, tr.que1)
	if got := w.only(tep, "RES1 resend"); !bytes.Equal(got, tr.res1) {
		t.Fatal("duplicate L1 QUE1 got a different RES1")
	}
	if len(thermo.answered) != 1 || thermo.wheel.pending() != 1 {
		t.Fatalf("L1 answer: answered %d, wheel %d; want 1 and 1", len(thermo.answered), thermo.wheel.pending())
	}
}

func TestAnsweredSessionsDoNotBlockTheDoor(t *testing.T) {
	w := newHandWorld(t, adaptiveRetry())
	o, oep := w.object("dev", L2, "device")
	for i := 0; i < maxPendingSessions; i++ {
		if tr := w.handshake(o, oep); tr.res2 == nil {
			t.Fatalf("handshake %d: no RES2", i)
		}
	}
	if len(o.answered) != maxPendingSessions || len(o.sessions) != 0 {
		t.Fatalf("pending %d, answered %d", len(o.sessions), len(o.answered))
	}
	// 256 answered sessions leave the door open...
	for i := 0; i < maxPendingSessions; i++ {
		if out := rawQUE1(o, oep, "flood"); len(out) != 1 {
			t.Fatalf("QUE1 %d beside %d answered sessions drew %d frames, want a RES1", i, len(o.answered), len(out))
		}
	}
	// ...but 256 handshakes awaiting QUE2 close it.
	if out := rawQUE1(o, oep, "flood"); len(out) != 0 {
		t.Fatalf("QUE1 past %d pending handshakes was answered", len(o.sessions))
	}
	if got := o.PendingSessions(); got != 2*maxPendingSessions {
		t.Fatalf("PendingSessions = %d, want %d", got, 2*maxPendingSessions)
	}
}

func TestAnsweredBoundRefusesAtCap(t *testing.T) {
	w := newHandWorld(t, adaptiveRetry())
	o, oep := w.object("dev", L2, "device")
	for i := 0; i < maxAnsweredSessions; i++ {
		k := sessionKey{peer: "filler"}
		k.rs[0], k.rs[1] = byte(i), byte(i>>8)
		o.answered[k] = answeredSession{gen: 0}
	}
	if out := rawQUE1(o, oep, "late"); len(out) != 0 {
		t.Fatal("QUE1 admitted with the answered table full")
	}
	for k := range o.answered {
		delete(o.answered, k)
		break
	}
	if out := rawQUE1(o, oep, "late"); len(out) != 1 {
		t.Fatal("QUE1 refused below the answered bound")
	}
	// The new pending handshake reserves the last answered slot.
	if out := rawQUE1(o, oep, "late"); len(out) != 0 {
		t.Fatal("QUE1 admitted past the slot a pending handshake reserved")
	}
}

func TestUnansweredExpiryFreesPendingSlot(t *testing.T) {
	w := newHandWorld(t, adaptiveRetry())
	o, oep := w.object("dev", L2, "device")
	for i := 0; i < maxPendingSessions; i++ {
		rawQUE1(o, oep, "flood")
	}
	if out := rawQUE1(o, oep, "flood"); len(out) != 0 || len(o.sessions) != maxPendingSessions {
		t.Fatalf("door open at %d pending handshakes", len(o.sessions))
	}
	w.clock.advanceTo(w.retry.ttl())
	if o.PendingSessions() != 0 || o.wheel.pending() != 0 {
		t.Fatalf("after SessionTTL: PendingSessions %d, wheel %d; want 0", o.PendingSessions(), o.wheel.pending())
	}
	if out := rawQUE1(o, oep, "flood"); len(out) != 1 {
		t.Fatal("QUE1 refused after every pending handshake expired")
	}
}

// TestHookedSubjectStreamsDiscoveries: a subject with an OnDiscovery hook
// hands each discovery to the hook and keeps none; an unhooked subject
// accumulates them in Results.
func TestHookedSubjectStreamsDiscoveries(t *testing.T) {
	for _, hooked := range []bool{true, false} {
		d := newDeployment(t)
		d.b.AddPolicy(attr.MustParse("position=='staff'"), attr.MustParse("type=='device'"), []string{"use"})
		s := d.addSubject("alice", attr.MustSet("position=staff"), wire.V30)
		d.addObject("thermo", L1, attr.MustSet("type=thermometer"), []string{"read"}, wire.V30)
		d.addObject("dev", L2, attr.MustSet("type=device"), []string{"use"}, wire.V30)
		var streamed []Discovery
		if hooked {
			s.OnDiscovery = func(d Discovery) { streamed = append(streamed, d) }
		}
		const rounds = 3
		for r := 1; r <= rounds; r++ {
			res := d.run()
			want := 2 * r
			if hooked {
				if len(res) != 0 || len(streamed) != want {
					t.Fatalf("hooked round %d: Results %d, streamed %d; want 0 and %d", r, len(res), len(streamed), want)
				}
			} else if len(res) != want {
				t.Fatalf("unhooked round %d: Results %d, want %d", r, len(res), want)
			}
		}
	}
}

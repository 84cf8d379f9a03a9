package core

import (
	"fmt"
	"runtime"
	"testing"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/netsim"
	"argus/internal/suite"
	"argus/internal/wire"
)

// BenchmarkWarmHandshake measures one full L2 discovery round against a
// single object with a warm credential verify cache: QUE1 broadcast, RES1,
// QUE2, RES2, MAC checks, and the session bookkeeping around them. The
// per-session nonce signatures and ECDH are never cacheable, so this is the
// floor a warm handshake costs; the allocs/op figure is what the zero-alloc
// codec seam is held to (BENCH_9.json).
func BenchmarkWarmHandshake(b *testing.B) {
	be, err := backend.New(suite.S128)
	if err != nil {
		b.Fatal(err)
	}
	net := netsim.New(netsim.DefaultWiFi(), 1)
	vc := cert.NewVerifyCache(0)

	be.AddPolicy(
		attr.MustParse("position=='manager'"),
		attr.MustParse("type=='multimedia'"),
		[]string{"play"})
	sid, _, err := be.RegisterSubject("bench-subject", attr.MustSet("position=manager"))
	if err != nil {
		b.Fatal(err)
	}
	sprov, err := be.ProvisionSubject(sid)
	if err != nil {
		b.Fatal(err)
	}
	sep := net.NewEndpoint()
	subj := NewSubject(sprov, wire.V20, Costs{}, WithEndpoint(sep), WithVerifyCache(vc))

	oid, _, err := be.RegisterObject("bench-object", L2, attr.MustSet("type=multimedia"), []string{"play"})
	if err != nil {
		b.Fatal(err)
	}
	oprov, err := be.ProvisionObject(oid)
	if err != nil {
		b.Fatal(err)
	}
	oep := net.NewEndpoint()
	NewObject(oprov, wire.V20, Costs{}, WithEndpoint(oep), WithVerifyCache(vc))
	net.Link(sep.Node(), oep.Node())

	// Prime: first round pays the cold chain verifications.
	if err := subj.Discover(1); err != nil {
		b.Fatal(err)
	}
	net.Run(0)
	if got := len(subj.Results()); got != 1 {
		b.Fatalf("priming round: %d discoveries, want 1", got)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := subj.Discover(1); err != nil {
			b.Fatal(err)
		}
		net.Run(0)
	}
	b.StopTimer()
	if got := len(subj.Results()); got != b.N+1 {
		b.Fatalf("completed %d discoveries, want %d", len(subj.Results()), b.N+1)
	}
}

// BenchmarkSessionTableBytes reports the live heap an object's session
// table holds per entry: B/pending for an L2 handshake awaiting QUE2 and
// B/answered once the handshake is answered, each counting the map slot,
// the session state, the cached encodings and the expiry. It measures the
// heap freed when a table of 256 entries expires and its map is replaced,
// so subject-side state never enters the figure. The two bounds in
// object.go are sized from these numbers:
//
//	go test -run '^$' -bench SessionTableBytes -benchtime 3x ./internal/core
func BenchmarkSessionTableBytes(b *testing.B) {
	const n = maxPendingSessions
	w := newHandWorld(b, adaptiveRetry())
	w.alice.OnDiscovery = func(Discovery) {}
	var pending, answered float64
	for i := 0; i < b.N; i++ {
		clock := &fakeClockEP{}
		o, oep := w.objectOn(clock, fmt.Sprintf("dev-%d", i), L2, "device")
		w.handshake(o, oep) // warm the verify cache and codec pools

		// release frees both tables and runs every expiry, returning the
		// live heap left.
		release := func() float64 {
			o.sessions = make(map[sessionKey]*objSession)
			o.answered = make(map[sessionKey]answeredSession)
			clock.advanceTo(clock.now + w.retry.ttl())
			return float64(liveHeap())
		}
		release()
		for j := 0; j < n; j++ {
			rawQUE1(o, oep, "flood")
		}
		full := float64(liveHeap())
		pending += (full - release()) / n
		for j := 0; j < n; j++ {
			w.handshake(o, oep)
		}
		full = float64(liveHeap())
		answered += (full - release()) / n
	}
	b.ReportMetric(pending/float64(b.N), "B/pending")
	b.ReportMetric(answered/float64(b.N), "B/answered")
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

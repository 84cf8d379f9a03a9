package main

import (
	"time"

	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/suite"
	"argus/internal/wire"
)

// unitCosts are per-operation costs measured in-process, in µs. The traced
// run multiplies them by the operation counts the engines report, because
// the spans of this benchmark sit around the layers' public calls and
// cannot see inside a Handle.
type unitCosts struct {
	sign, verify, kexGen, kexShared, mac, cipher float64
	certVerify                                   float64 // cert.VerifyCertChain, no cache
	profVerify                                   float64 // Profile.VerifyAnchored, no cache
	decode, encode                               [nKinds]float64
}

// timeOp returns the median µs of fn over reps runs of batch calls each.
func timeOp(reps, batch int, fn func()) float64 {
	var xs []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		xs = append(xs, float64(time.Since(t0))/float64(time.Microsecond)/float64(batch))
	}
	return median(xs)
}

// calibrate measures the suite, cert and wire unit costs. prov supplies a
// real credential chain and profile; frames are the captured frames of the
// traced window, by kind.
func calibrate(prov *backend.SubjectProvision, frames [nKinds][]byte) (unitCosts, error) {
	var u unitCosts
	key, err := suite.GenerateSigningKey(suite.S128, nil)
	if err != nil {
		return u, err
	}
	msg := make([]byte, 200)
	sig, err := key.Sign(msg)
	if err != nil {
		return u, err
	}
	pub := key.Public()
	u.sign = timeOp(5, 40, func() { _, _ = key.Sign(msg) })
	u.verify = timeOp(5, 40, func() { pub.Verify(msg, sig) })
	peer, err := suite.NewKeyExchange(suite.S128, nil)
	if err != nil {
		return u, err
	}
	u.kexGen = timeOp(5, 40, func() { _, _ = suite.NewKeyExchange(suite.S128, nil) })
	kx, err := suite.NewKeyExchange(suite.S128, nil)
	if err != nil {
		return u, err
	}
	u.kexShared = timeOp(5, 40, func() { _, _ = kx.Shared(peer.Public()) })
	sk := make([]byte, 32)
	var h [32]byte
	u.mac = timeOp(5, 400, func() { suite.FinishedMAC(sk, suite.LabelObjectFinished, h) })
	plain := make([]byte, 256)
	ct, err := suite.EncryptProfile(sk, plain, nil)
	if err != nil {
		return u, err
	}
	u.cipher = timeOp(5, 400, func() { _, _ = suite.DecryptProfile(sk, ct) })

	var none *cert.VerifyCache
	if _, err := none.VerifyCert(prov.CACert, prov.CertDER, prov.Strength); err != nil {
		return u, err
	}
	u.certVerify = timeOp(5, 20, func() { _, _ = none.VerifyCert(prov.CACert, prov.CertDER, prov.Strength) })
	raw := prov.Profile.Encode()
	now := time.Now()
	if err := none.VerifyProfileAnchored(prov.Profile, raw, prov.CACert, prov.AdminPub, now); err != nil {
		return u, err
	}
	u.profVerify = timeOp(5, 20, func() { _ = none.VerifyProfileAnchored(prov.Profile, raw, prov.CACert, prov.AdminPub, now) })

	buf := make([]byte, 0, 4096)
	for k := 1; k < nKinds; k++ {
		if frames[k] == nil {
			continue
		}
		m, err := wire.Decode(frames[k])
		if err != nil {
			return u, err
		}
		u.decode[k] = timeOp(5, 400, func() { _, _ = wire.Decode(frames[k]) })
		u.encode[k] = timeOp(5, 400, func() { buf = m.AppendTo(buf[:0]) })
	}
	return u, nil
}

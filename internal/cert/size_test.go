package cert

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"encoding/asn1"
	"math/big"
	"testing"

	"argus/internal/suite"
)

// TestIssuedCertSizesFixed checks the signature-length pinning at every
// strength: every certificate an admin issues — root or subordinate — has
// exactly the same DER size and a maxSigLen signature, so wire messages
// carrying CERTs are size-deterministic and fixed-seed simulation runs
// reproduce byte for byte.
func TestIssuedCertSizesFixed(t *testing.T) {
	const perAdmin = 32
	for _, s := range suite.Strengths {
		t.Run(s.String(), func(t *testing.T) {
			root, err := NewAdmin(s, "root")
			if err != nil {
				t.Fatal(err)
			}
			sub, err := root.NewSubordinate("sub")
			if err != nil {
				t.Fatal(err)
			}
			sigLen := maxSigLen(s)
			for _, c := range [][]byte{root.CACert(), sub.CACert()} {
				ca, err := x509.ParseCertificate(c)
				if err != nil {
					t.Fatal(err)
				}
				if len(ca.Signature) != sigLen {
					t.Fatalf("CA signature is %d B, want %d B", len(ca.Signature), sigLen)
				}
			}
			key, err := suite.GenerateSigningKey(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, admin := range []*Admin{root, sub} {
				want := 0 // the issuer name is part of the DER
				for i := 0; i < perAdmin; i++ {
					id := IDFromName("entity")
					chain, err := admin.IssueCertChain(id, "entity", RoleObject, key.Public())
					if err != nil {
						t.Fatal(err)
					}
					certs, err := x509.ParseCertificates(chain)
					if err != nil {
						t.Fatal(err)
					}
					leaf := certs[0]
					if want == 0 {
						want = len(leaf.Raw)
					}
					if len(leaf.Raw) != want {
						t.Fatalf("cert %d is %d B, want %d B — signature length not pinned", i, len(leaf.Raw), want)
					}
					if len(leaf.Signature) != sigLen {
						t.Fatalf("cert %d signature is %d B, want %d B", i, len(leaf.Signature), sigLen)
					}
					if _, err := VerifyCertChain(root.CACert(), chain, s); err != nil {
						t.Fatalf("pinned-size cert does not verify: %v", err)
					}
				}
			}
		})
	}
}

// TestSizedSignerMovesSToUpperHalf checks the s-normalisation: a signature
// whose s lies in the lower half of [1, n) comes back as (r, n−s) and still
// verifies, and every signature the signer returns has an upper-half s and
// the maximal length.
func TestSizedSignerMovesSToUpperHalf(t *testing.T) {
	key, err := suite.GenerateSigningKey(suite.S128, nil)
	if err != nil {
		t.Fatal(err)
	}
	priv := key.StdPrivate()
	n := priv.Curve.Params().N
	half := new(big.Int).Rsh(n, 1)
	digest := sha256.Sum256([]byte("tbs"))
	parse := func(sig []byte) (r, s *big.Int) {
		t.Helper()
		var rs struct{ R, S *big.Int }
		if _, err := asn1.Unmarshal(sig, &rs); err != nil {
			t.Fatal(err)
		}
		return rs.R, rs.S
	}

	lowerSeen := false
	for i := 0; i < 64 && !lowerSeen; i++ {
		raw, err := ecdsa.SignASN1(rand.Reader, priv, digest[:])
		if err != nil {
			t.Fatal(err)
		}
		r, s := parse(raw)
		if s.Cmp(half) > 0 {
			continue
		}
		lowerSeen = true
		sig, err := upperS(raw, n)
		if err != nil {
			t.Fatal(err)
		}
		r2, s2 := parse(sig)
		if r2.Cmp(r) != 0 || s2.Cmp(new(big.Int).Sub(n, s)) != 0 {
			t.Fatal("lower-half s not replaced by n−s")
		}
		if !ecdsa.VerifyASN1(&priv.PublicKey, digest[:], sig) {
			t.Fatal("normalised signature does not verify")
		}
	}
	if !lowerSeen {
		t.Fatal("no lower-half s in 64 signatures")
	}

	g, err := newSizedSigner(priv, suite.S128)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		sig, err := g.Sign(rand.Reader, digest[:], crypto.SHA256)
		if err != nil {
			t.Fatal(err)
		}
		if _, s := parse(sig); s.Cmp(half) <= 0 {
			t.Fatal("signer returned a lower-half s")
		}
		if len(sig) != maxSigLen(suite.S128) || g.lastLen != len(sig) {
			t.Fatalf("signature is %d B (lastLen %d), want %d B", len(sig), g.lastLen, maxSigLen(suite.S128))
		}
		if !ecdsa.VerifyASN1(&priv.PublicKey, digest[:], sig) {
			t.Fatal("signer output does not verify")
		}
	}
}

func TestSizedSignerRejectsNonECDSAKey(t *testing.T) {
	_, edKey, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newSizedSigner(edKey, suite.S128); err == nil {
		t.Error("Ed25519 key accepted")
	}
}

// TestMaxSigLen pins the DER arithmetic for every supported strength,
// including P-521 whose 521-bit order never fills its 66-byte coordinate.
func TestMaxSigLen(t *testing.T) {
	want := map[suite.Strength]int{
		suite.S112: 2 + 2*(2+29), // P-224: 224-bit order, sign octet
		suite.S128: 2 + 2*(2+33), // P-256: 256-bit order, sign octet
		suite.S192: 2 + 2*(2+49), // P-384: 384-bit order, sign octet
		suite.S256: 3 + 2*(2+66), // P-521: 521-bit order, no sign octet, long-form SEQ
	}
	for s, w := range want {
		if got := maxSigLen(s); got != w {
			t.Errorf("maxSigLen(%v) = %d, want %d", s, got, w)
		}
	}
}

// BenchmarkIssueCert measures one leaf issuance at 128-bit strength: DER
// build, signing with length pinning and x509's check of the signature.
func BenchmarkIssueCert(b *testing.B) {
	admin, err := NewAdmin(suite.S128, "root")
	if err != nil {
		b.Fatal(err)
	}
	key, err := suite.GenerateSigningKey(suite.S128, nil)
	if err != nil {
		b.Fatal(err)
	}
	id := IDFromName("entity")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := admin.IssueCert(id, "entity", RoleObject, key.Public()); err != nil {
			b.Fatal(err)
		}
	}
}

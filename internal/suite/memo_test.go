package suite

import (
	"testing"
)

func benchKeys(t *testing.T) (*SigningKey, *SigningKey) {
	t.Helper()
	k1, err := GenerateSigningKey(S128, nil)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := GenerateSigningKey(S128, nil)
	if err != nil {
		t.Fatal(err)
	}
	return k1, k2
}

// signedItem is one (key, message, signature) tuple under test.
type signedItem struct {
	Key PublicKey
	Msg []byte
	Sig []byte
}

func signed(t *testing.T, k *SigningKey, msg string) signedItem {
	t.Helper()
	sig, err := k.Sign([]byte(msg))
	if err != nil {
		t.Fatal(err)
	}
	return signedItem{Key: k.Public(), Msg: []byte(msg), Sig: sig}
}

func TestVerifyMemo(t *testing.T) {
	k1, _ := benchKeys(t)
	a := signed(t, k1, "artifact")

	var nilMemo *VerifyMemo
	if !nilMemo.Verify(a.Key, a.Msg, a.Sig) {
		t.Error("nil memo must verify directly")
	}

	vm := NewVerifyMemo(0)
	if !vm.Verify(a.Key, a.Msg, a.Sig) {
		t.Fatal("first (miss) verification failed")
	}
	if len(vm.m) != 1 {
		t.Fatalf("memo holds %d entries after one success, want 1", len(vm.m))
	}
	if !vm.Verify(a.Key, a.Msg, a.Sig) {
		t.Error("memo hit rejected")
	}
	if len(vm.m) != 1 {
		t.Errorf("memo grew on a hit: %d entries", len(vm.m))
	}

	// Failures are never remembered: same inputs keep failing.
	bad := append([]byte(nil), a.Sig...)
	bad[0] ^= 0x01
	for i := 0; i < 2; i++ {
		if vm.Verify(a.Key, a.Msg, bad) {
			t.Fatal("corrupted signature accepted")
		}
	}
	if len(vm.m) != 1 {
		t.Errorf("failure was cached: %d entries", len(vm.m))
	}
}

func TestVerifyMemoCapacityReset(t *testing.T) {
	k1, _ := benchKeys(t)
	vm := NewVerifyMemo(2)
	msgs := []string{"one", "two", "three"}
	for _, m := range msgs {
		it := signed(t, k1, m)
		if !vm.Verify(it.Key, it.Msg, it.Sig) {
			t.Fatalf("verify %q failed", m)
		}
	}
	// Wholesale eviction: hitting capacity resets the map, so after the
	// third insert only the newest entry remains.
	if len(vm.m) != 1 {
		t.Errorf("memo holds %d entries after reset, want 1", len(vm.m))
	}
}

func TestSigningKeyAccessors(t *testing.T) {
	k, _ := benchKeys(t)
	if k.Strength() != S128 {
		t.Errorf("Strength() = %v, want %v", k.Strength(), S128)
	}
	if k.StdPrivate() == nil {
		t.Error("StdPrivate() = nil")
	}
	p := k.Public()
	if p.Strength() != S128 {
		t.Errorf("public Strength() = %v", p.Strength())
	}
	if p.IsZero() {
		t.Error("generated public key reported zero")
	}
	if !(PublicKey{}).IsZero() {
		t.Error("zero-value public key not reported zero")
	}
	if got := S128.String(); got != "128-bit" {
		t.Errorf("S128.String() = %q", got)
	}
}

package suite

import (
	"crypto/sha256"
	"sync"
)

// verifyDigest keys a verification by its exact inputs. Length prefixes make
// the concatenation unambiguous.
func verifyDigest(key PublicKey, msg, sig []byte) [32]byte {
	h := sha256.New()
	var n [8]byte
	for _, part := range [][]byte{key.bytes, msg, sig} {
		n[0] = byte(len(part) >> 24)
		n[1] = byte(len(part) >> 16)
		n[2] = byte(len(part) >> 8)
		n[3] = byte(len(part))
		h.Write(n[:4])
		h.Write(part)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// VerifyMemo is a bounded, concurrency-safe memo of successful signature
// verifications, shared by receivers that see the same signed artifacts.
// Only successes are remembered — sound because a signature that verified
// once over exact bytes verifies forever — so an attacker flooding garbage
// never poisons it and never gets a cheap reject timing oracle from it
// either: failures always pay full price.
//
// A nil *VerifyMemo is valid and verifies directly.
type VerifyMemo struct {
	mu  sync.Mutex
	m   map[[32]byte]struct{}
	cap int
}

// NewVerifyMemo returns a memo holding at most capacity successes
// (default 4096 when capacity <= 0). Eviction is wholesale: when full, the
// memo resets — entries are pure cache, and the artifacts it serves
// (update notifications) arrive in tight bursts where a reset between
// bursts costs one redundant verify per distinct artifact.
func NewVerifyMemo(capacity int) *VerifyMemo {
	if capacity <= 0 {
		capacity = 4096
	}
	return &VerifyMemo{m: make(map[[32]byte]struct{}, capacity), cap: capacity}
}

// Verify checks sig over msg under key, consulting the memo first.
func (vm *VerifyMemo) Verify(key PublicKey, msg, sig []byte) bool {
	if vm == nil {
		return key.Verify(msg, sig)
	}
	d := verifyDigest(key, msg, sig)
	vm.mu.Lock()
	_, hit := vm.m[d]
	vm.mu.Unlock()
	if hit {
		return true
	}
	if !key.Verify(msg, sig) {
		return false
	}
	vm.mu.Lock()
	if len(vm.m) >= vm.cap {
		vm.m = make(map[[32]byte]struct{}, vm.cap)
	}
	vm.m[d] = struct{}{}
	vm.mu.Unlock()
	return true
}

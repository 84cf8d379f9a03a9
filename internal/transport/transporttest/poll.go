// Package transporttest holds the test-side deadline helper for code that
// waits on real-clock transports (transport.Mesh, transport.UDP). The
// polling discipline itself — short step, generous deadline, never a fixed
// sleep — is transport.Poll; see internal/transport/poll.go.
package transporttest

import (
	"time"

	"argus/internal/transport"
)

// Failer is the slice of testing.TB the helpers need; keeping it an
// interface avoids linking package testing into non-test code.
type Failer interface {
	Helper()
	Fatalf(format string, args ...any)
}

// WaitUntil polls cond on transport.DefaultStep until the deadline and
// fails the test if it is never met. what names the awaited condition in
// the failure message.
func WaitUntil(t Failer, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	if !transport.Poll(timeout, transport.DefaultStep, cond) {
		t.Fatalf("timed out after %v waiting for %s", timeout, what)
	}
}

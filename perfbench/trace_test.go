package main

import "testing"

func TestCoveredMergesOverlapsAndClips(t *testing.T) {
	ivs := []span{{Start: 0, End: 10}, {Start: 5, End: 15}, {Start: 20, End: 30}, {Start: 95, End: 120}}
	// Union within [2, 100]: [2,15] + [20,30] + [95,100] = 13 + 10 + 5.
	if got := covered(2, 100, ivs); got != 28 {
		t.Fatalf("covered = %d, want 28", got)
	}
	if got := covered(40, 50, ivs); got != 0 {
		t.Fatalf("covered with no overlap = %d, want 0", got)
	}
}

func TestNestAndSelfTimes(t *testing.T) {
	// One session [0,100]: the generator ran 10 late, QUE1 waited [10,30]
	// in the mailbox, the object handled it in [30,50] and the subject the
	// response in [60,90]; a phase span [10,90] encloses the three.
	all := []span{
		{Name: "session", Subj: "s", Round: 1, Obj: "o", Start: 0, End: 100},
		{Name: "driver.lag", Subj: "s", Round: 1, Start: 0, End: 10},
		{Name: "core.phase.que1_res1", Subj: "s", Round: 1, Obj: "o", Start: 10, End: 90},
		{Name: "transport.wait", Subj: "s", Round: 1, Obj: "o", Start: 10, End: 30},
		{Name: "core.handle.que1", Subj: "s", Round: 1, Obj: "o", Start: 30, End: 50},
		{Name: "core.handle.res1", Subj: "s", Round: 1, Obj: "o", Start: 60, End: 90},
		// Another session of the same round shares the round-level lag.
		{Name: "session", Subj: "s", Round: 1, Obj: "p", Start: 0, End: 40},
		// A span of a session that never completed is dropped.
		{Name: "core.handle.que1", Subj: "s", Round: 2, Obj: "o", Start: 200, End: 210},
		// Write-path spans have no session.
		{Name: "backendsvc.revoke", Start: 5, End: 8},
	}
	sessions, other := nest(all)
	if len(sessions) != 2 || len(other) != 1 {
		t.Fatalf("got %d sessions and %d other spans, want 2 and 1", len(sessions), len(other))
	}
	ss := sessions[0]
	if len(ss) != 6 {
		t.Fatalf("first session has %d spans, want 6", len(ss))
	}
	byName := map[string]span{}
	for _, s := range ss {
		byName[s.Name] = s
	}
	root := byName["session"]
	if root.Parent != -1 {
		t.Fatalf("root parent = %d", root.Parent)
	}
	phase := byName["core.phase.que1_res1"]
	for name, parent := range map[string]int{
		"driver.lag": root.ID, "core.phase.que1_res1": root.ID,
		"transport.wait": phase.ID, "core.handle.que1": phase.ID, "core.handle.res1": phase.ID,
	} {
		if byName[name].Parent != parent {
			t.Errorf("%s parent = %d, want %d", name, byName[name].Parent, parent)
		}
	}
	self := map[string]int64{}
	for i, st := range selfTimes(ss) {
		self[ss[i].Name] = st
	}
	want := map[string]int64{
		"session":              10, // [90,100]
		"driver.lag":           10,
		"core.phase.que1_res1": 10, // [50,60]
		"transport.wait":       20,
		"core.handle.que1":     20,
		"core.handle.res1":     30,
	}
	var sum int64
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, self[name], w)
		}
		sum += self[name]
	}
	if sum != root.End-root.Start {
		t.Fatalf("self times sum to %d, want the session's %d", sum, root.End-root.Start)
	}
	// The second session got its own copy of the round-level lag.
	if len(sessions[1]) != 2 || sessions[1][1].Name != "driver.lag" {
		t.Fatalf("second session spans = %+v", sessions[1])
	}
}

func TestNestClipsSpansToTheSession(t *testing.T) {
	all := []span{
		{Name: "session", Subj: "s", Round: 1, Obj: "o", Start: 100, End: 200},
		{Name: "core.phase.res2_decrypt", Subj: "s", Round: 1, Obj: "o", Start: 190, End: 205},
	}
	sessions, _ := nest(all)
	ph := sessions[0][1]
	if ph.Start != 190 || ph.End != 200 || ph.Parent != sessions[0][0].ID {
		t.Fatalf("clipped span = %+v", ph)
	}
	if st := selfTimes(sessions[0]); st[0] != 90 || st[1] != 10 {
		t.Fatalf("self times = %v, want [90 10]", st)
	}
}

func TestKindOf(t *testing.T) {
	for p, want := range map[string]int{"\x01\x03": 1, "\x04": 4, "\x05": 0, "": 0, "\xa5": 0} {
		if got := kindOf([]byte(p)); got != want {
			t.Errorf("kindOf(%q) = %d, want %d", p, got, want)
		}
	}
}

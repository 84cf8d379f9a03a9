package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"argus/internal/backend"
	"argus/internal/core"
	"argus/internal/obs"
	"argus/internal/transport"
	"argus/internal/wire"
)

// The traced run records spans from the benchmark's own files only: every
// engine endpoint is wrapped in tracedEP, which times Handle by frame kind,
// After callbacks, Do closures, and the wait from a frame's Send or
// Broadcast to the receiver's Handle. core's own per-phase spans arrive
// through WithTelemetry's tracer. Spans stay in memory and are written out
// when the run ends.

type role int

const (
	roleSubject role = iota
	roleObject
)

// nKinds indexes frames by their first byte: 1..4 are wire.MsgType values,
// 0 is anything else (update envelopes).
const nKinds = 5

func kindOf(p []byte) int {
	if len(p) > 0 && p[0] >= byte(wire.TQUE1) && p[0] <= byte(wire.TRES2) {
		return int(p[0])
	}
	return 0
}

// span is one timed interval. Spans of one session share the key (subject,
// round, object); round-level spans (generator lag, Do wait, Discover) have
// an empty object and belong to every session of their round. ID and
// Parent are assigned when the trace is nested.
type span struct {
	Name   string         `json:"name"`
	Subj   transport.Addr `json:"subject"`
	Round  int64          `json:"round"`
	Obj    transport.Addr `json:"object,omitempty"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	ID     int            `json:"id"`
	Parent int            `json:"parent"` // -1 for a root
}

// spanBuf is appended to by exactly one goroutine (an endpoint's event
// loop, the generator or the churn stream) and read after traffic stops.
type spanBuf struct{ spans []span }

func (b *spanBuf) add(s span) { b.spans = append(b.spans, s) }

// frameStat counts handled frames of one (role, kind) and their bytes.
type frameStat struct{ n, bytes atomic.Int64 }

type sendKey struct {
	buf  uintptr
	from transport.Addr
}

// sendShards spreads the send-time map over many locks: one global lock
// taken on every frame would itself park handlers under saturation and
// inflate the very handle times the trace measures.
const sendShards = 256

type sendShard struct {
	mu sync.Mutex
	m  map[sendKey]int64
}

func shardOf(k sendKey) int { return int((k.buf >> 4) % sendShards) }

type tracer struct {
	epoch time.Time
	on    atomic.Bool
	f     *fleet

	mu       sync.Mutex
	bufs     []*spanBuf
	eps      []*tracedEP
	objLevel map[transport.Addr]backend.Level // by qualified address; written only during setup
	captured [nKinds][]byte
	haveCap  [nKinds]atomic.Bool

	sends [sendShards]sendShard

	frames  [2][nKinds]frameStat
	sent    [nKinds]atomic.Int64 // frames encoded and handed to the transport
	timerNs atomic.Int64
	doNs    atomic.Int64
	// publicRES1 counts RES1 frames from L1 objects at subjects: each
	// carries a signed profile instead of a certificate.
	publicRES1 atomic.Int64

	gen, churn *spanBuf
}

// newTracer returns a tracer; setup binds it to its fleet and clock.
func newTracer() *tracer {
	t := &tracer{objLevel: map[transport.Addr]backend.Level{}}
	for i := range t.sends {
		t.sends[i].m = map[sendKey]int64{}
	}
	t.gen, t.churn = t.newBuf(), t.newBuf()
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newBuf() *spanBuf {
	b := &spanBuf{}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// qualify makes a Mesh address unique across cells: every cell's Mesh
// numbers its members from zero.
func qualify(cell int, a transport.Addr) transport.Addr {
	return transport.Addr(strconv.Itoa(cell) + "/" + string(a))
}

func (t *tracer) noteObject(cell int, a transport.Addr, lv backend.Level) {
	if t == nil {
		return
	}
	t.objLevel[qualify(cell, a)] = lv
}

// round is the current round of the subject at qualified address a; a
// subject has at most one round in flight, so the frame belongs to it.
func (t *tracer) round(a transport.Addr) int64 {
	if v, ok := t.f.addrSlot.Load(a); ok {
		return v.(*subjectSlot).curRound.Load()
	}
	return -1
}

func (t *tracer) stamp(p []byte, from transport.Addr) {
	if !t.on.Load() || len(p) == 0 {
		return
	}
	t.sent[kindOf(p)].Add(1)
	k := sendKey{uintptr(unsafe.Pointer(unsafe.SliceData(p))), from}
	now := t.now()
	sh := &t.sends[shardOf(k)]
	sh.mu.Lock()
	sh.m[k] = now
	sh.mu.Unlock()
}

// sentAt returns when the frame was handed to the transport. Unicast
// entries are consumed; a broadcast entry serves every receiver.
func (t *tracer) sentAt(p []byte, from transport.Addr) (int64, bool) {
	if len(p) == 0 {
		return 0, false
	}
	k := sendKey{uintptr(unsafe.Pointer(unsafe.SliceData(p))), from}
	sh := &t.sends[shardOf(k)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	at, ok := sh.m[k]
	if ok && kindOf(p) != int(wire.TQUE1) {
		delete(sh.m, k)
	}
	return at, ok
}

// wrap interposes a tracedEP on an engine endpoint; a nil tracer returns
// ep unchanged, so untraced runs carry no wrapper at all.
func (t *tracer) wrap(ep transport.Endpoint, r role, cell int) transport.Endpoint {
	if t == nil {
		return ep
	}
	e := &tracedEP{Endpoint: ep, t: t, role: r, cell: cell, self: qualify(cell, ep.Addr()), buf: t.newBuf(),
		res2: map[backend.Level]map[int]int64{}}
	t.mu.Lock()
	t.eps = append(t.eps, e)
	t.mu.Unlock()
	return e
}

// tracedEP is the benchmark's wrapper around one engine endpoint. Its
// buffers are written only on the endpoint's event loop.
type tracedEP struct {
	transport.Endpoint
	t    *tracer
	role role
	cell int
	self transport.Addr // qualified
	buf  *spanBuf
	durs [nKinds][]int64                 // Handle durations by frame kind, ns
	res2 map[backend.Level]map[int]int64 // RES2 lengths by sender level (subjects)
}

func (e *tracedEP) Send(to transport.Addr, p []byte) {
	e.t.stamp(p, e.self)
	e.Endpoint.Send(to, p)
}

func (e *tracedEP) Broadcast(p []byte, ttl int) {
	e.t.stamp(p, e.self)
	e.Endpoint.Broadcast(p, ttl)
}

func (e *tracedEP) After(d time.Duration, fn func()) {
	e.Endpoint.After(d, func() {
		if !e.t.on.Load() {
			fn()
			return
		}
		start := e.t.now()
		fn()
		e.t.timerNs.Add(e.t.now() - start)
	})
}

// Do times the wait from injection to execution and the closure itself;
// on a subject the closure is the round's Discover.
func (e *tracedEP) Do(fn func()) {
	issued := e.t.now()
	e.Endpoint.Do(func() {
		start := e.t.now()
		fn()
		end := e.t.now()
		if !e.t.on.Load() {
			return
		}
		e.t.doNs.Add(end - start)
		if e.role == roleSubject {
			r := e.t.round(e.self)
			e.buf.add(span{Name: "transport.do_wait", Subj: e.self, Round: r, Start: issued, End: start})
			e.buf.add(span{Name: "core.discover", Subj: e.self, Round: r, Start: start, End: end})
		}
	})
}

func (e *tracedEP) Bind(h transport.Handler) {
	e.Endpoint.Bind(transport.HandlerFunc(func(from transport.Addr, p []byte) {
		if !e.t.on.Load() {
			h.Handle(from, p)
			return
		}
		qf := qualify(e.cell, from)
		sent, ok := e.t.sentAt(p, qf)
		start := e.t.now()
		h.Handle(from, p)
		e.t.handled(e, qf, p, sent, ok, start, e.t.now())
	}))
}

var kindName = [nKinds]string{"other", "que1", "res1", "que2", "res2"}

// handled accounts one frame: count, bytes and duration by (role, kind); the
// first frame of each kind is kept for codec calibration; frames that
// belong to a session (queries at objects, responses at subjects) get a
// handle span and a transport wait span.
func (t *tracer) handled(e *tracedEP, from transport.Addr, p []byte, sent int64, sentOK bool, start, end int64) {
	k := kindOf(p)
	fs := &t.frames[e.role][k]
	fs.n.Add(1)
	fs.bytes.Add(int64(len(p)))
	e.durs[k] = append(e.durs[k], end-start)
	if !t.haveCap[k].Load() {
		t.mu.Lock()
		if t.captured[k] == nil {
			t.captured[k] = append([]byte(nil), p...)
			t.haveCap[k].Store(true)
		}
		t.mu.Unlock()
	}
	if e.role == roleSubject && k == int(wire.TRES1) && t.objLevel[from] == backend.L1 {
		t.publicRES1.Add(1)
	}
	if e.role == roleSubject && k == int(wire.TRES2) {
		lv := t.objLevel[from]
		if e.res2[lv] == nil {
			e.res2[lv] = map[int]int64{}
		}
		e.res2[lv][len(p)]++
	}

	var subj, obj transport.Addr
	switch {
	case e.role == roleObject && (k == int(wire.TQUE1) || k == int(wire.TQUE2)):
		subj, obj = from, e.self
	case e.role == roleSubject && (k == int(wire.TRES1) || k == int(wire.TRES2)):
		subj, obj = e.self, from
	default:
		return
	}
	r := t.round(subj)
	e.buf.add(span{Name: "core.handle." + kindName[k], Subj: subj, Round: r, Obj: obj, Start: start, End: end})
	if sentOK {
		e.buf.add(span{Name: "transport.wait", Subj: subj, Round: r, Obj: obj, Start: sent, End: start})
	}
}

// coreTracer returns the obs.Tracer handed to a subject engine through
// WithTelemetry; its per-phase spans are moved onto the benchmark clock and
// into the subject's span buffer.
func (t *tracer) coreTracer(s *subjectSlot, ep transport.Endpoint) *obs.Tracer {
	if t == nil {
		return nil
	}
	te := ep.(*tracedEP)
	tr := obs.NewTracer()
	tr.SetSink(func(sp obs.Span) {
		if !t.on.Load() || sp.Phase == obs.PhaseAll {
			return
		}
		off := t.now() - int64(ep.Now())
		peer := transport.Addr("")
		if i := strings.Index(sp.Detail, "peer="); i >= 0 {
			peer = qualify(te.cell, transport.Addr(sp.Detail[i+len("peer="):]))
		}
		te.buf.add(span{
			Name: "core.phase." + sp.Phase, Subj: te.self, Round: s.curRound.Load(), Obj: peer,
			Start: int64(sp.Start) + off, End: int64(sp.End) + off,
		})
	})
	return tr
}

// session records a session's root span, from due (or armed) time to the
// discovery, on the subject's event loop.
func (t *tracer) session(s *subjectSlot, d core.Discovery, start, at time.Duration) {
	if t == nil || !t.on.Load() {
		return
	}
	te := s.ep.(*tracedEP)
	te.buf.add(span{Name: "session", Subj: te.self, Round: int64(d.Round), Obj: qualify(te.cell, d.Node), Start: int64(start), End: int64(at)})
}

// fired records the generator's lag for one round (generator goroutine).
func (t *tracer) fired(s *subjectSlot, due, at time.Duration) {
	if t == nil || !t.on.Load() {
		return
	}
	te := s.ep.(*tracedEP)
	t.gen.add(span{Name: "driver.lag", Subj: te.self, Round: s.curRound.Load(), Start: int64(due), End: int64(at)})
}

// churnSpan records one write-path interval (churn goroutine).
func (t *tracer) churnSpan(name string, start, end time.Duration) {
	if t == nil || !t.on.Load() {
		return
	}
	t.churn.add(span{Name: name, Start: int64(start), End: int64(end), Parent: -1})
}

// collect gathers every buffer's spans; call after traffic has stopped.
func (t *tracer) collect() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	return out
}

type sessKey struct {
	subj  transport.Addr
	round int64
	obj   transport.Addr
}

// nest groups spans into sessions and assigns each span the smallest
// enclosing span of its session as parent; the session span is the root.
// Round-level spans are copied into every session of their round, and
// spans are clipped to their session's interval. Spans of sessions that
// never completed inside the traced window (no root) are dropped, as are
// write-path spans, which are returned separately.
func nest(all []span) (sessions [][]span, other []span) {
	roots := map[sessKey]int{}
	byRound := map[sessKey][]sessKey{}
	for _, s := range all {
		if s.Name == "session" {
			k := sessKey{s.Subj, s.Round, s.Obj}
			roots[k] = len(sessions)
			sessions = append(sessions, []span{s})
			rk := sessKey{s.Subj, s.Round, ""}
			byRound[rk] = append(byRound[rk], k)
		}
	}
	for _, s := range all {
		switch {
		case s.Name == "session":
		case s.Subj == "" && s.Obj == "":
			other = append(other, s)
		case s.Obj == "":
			for _, k := range byRound[sessKey{s.Subj, s.Round, ""}] {
				sessions[roots[k]] = append(sessions[roots[k]], s)
			}
		default:
			if i, ok := roots[sessKey{s.Subj, s.Round, s.Obj}]; ok {
				sessions[i] = append(sessions[i], s)
			}
		}
	}
	id := 0
	for i, ss := range sessions {
		sessions[i] = nestOne(ss, id)
		id += len(ss)
	}
	return sessions, other
}

// nestOne orders one session's spans (root first) and links parents by
// containment: after sorting by start, then longest first, each span's
// parent is the innermost span on the stack that still contains it.
func nestOne(ss []span, firstID int) []span {
	root := ss[0]
	for i := range ss[1:] {
		s := &ss[i+1]
		s.Start = min(max(s.Start, root.Start), root.End)
		s.End = min(max(s.End, s.Start), root.End)
	}
	sort.SliceStable(ss[1:], func(i, j int) bool {
		a, b := ss[i+1], ss[j+1]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End > b.End
	})
	stack := []int{0}
	for i := range ss {
		ss[i].ID = firstID + i
		if i == 0 {
			ss[i].Parent = -1
			continue
		}
		for len(stack) > 1 && ss[stack[len(stack)-1]].End < ss[i].End {
			stack = stack[:len(stack)-1]
		}
		ss[i].Parent = ss[stack[len(stack)-1]].ID
		stack = append(stack, i)
	}
	return ss
}

// selfTimes returns, for one nested session, each span's self time: its
// duration minus the part of its interval that its children cover.
func selfTimes(ss []span) []int64 {
	idx := map[int]int{}
	for i, s := range ss {
		idx[s.ID] = i
	}
	kids := make([][]span, len(ss))
	for _, s := range ss {
		if p, ok := idx[s.Parent]; ok {
			kids[p] = append(kids[p], s)
		}
	}
	out := make([]int64, len(ss))
	for i, s := range ss {
		out[i] = (s.End - s.Start) - covered(s.Start, s.End, kids[i])
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs []span) int64 {
	iv := make([][2]int64, 0, len(ivs))
	for _, s := range ivs {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = lo
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// writeTrace writes every span as gzipped JSON lines.
func writeTrace(path string, sessions [][]span, other []span) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	zw := gzip.NewWriter(fh)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for _, ss := range sessions {
		for _, s := range ss {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
	}
	for _, s := range other {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return fh.Close()
}

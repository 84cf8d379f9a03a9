package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/cert"
	"argus/internal/core"
	"argus/internal/groups"
	"argus/internal/obs"
	"argus/internal/suite"
	"argus/internal/transport"
	"argus/internal/update"
	"argus/internal/wire"
)

// workers is the provisioning worker count: one per core of the 2-core
// host the baseline was measured on.
const workers = 2

// subjectSlot is the benchmark's view of one subject engine. mu guards the
// round ledger, written by the generator (arming) and by the engine's event
// loop (discoveries).
type subjectSlot struct {
	id   cert.ID
	eng  *core.Subject
	ep   transport.Endpoint
	cell *cell
	// stale marks a fellow added after a revocation re-keyed the covert
	// group: the objects still hold the older key, so L3 services answer
	// this subject at L2.
	stale bool
	// curRound mirrors round for the tracer, which reads it off the loop.
	curRound atomic.Int64

	mu       sync.Mutex
	round    int
	busy     bool // a round is in flight
	reaped   bool // drain charged the current round's missing sessions
	timed    bool // the in-flight round is inside the measured window
	revoking bool // a revocation is in progress; the generator skips it
	revoked  bool // revocation applied by every object of the cell
	expected int
	got      int
	seen     []cert.ID     // objects discovered this round (exactly-once check)
	start    time.Duration // due (open loop) or armed (closed loop) time
}

type objectSlot struct {
	id    cert.ID
	addr  transport.Addr
	level backend.Level
	eng   *core.Object
}

// cell is one broadcast domain: a Mesh of subjects and objects plus the
// cell's update distributor.
type cell struct {
	index    int
	mesh     *transport.Mesh
	dist     *update.Distributor
	vcache   *cert.VerifyCache // nil when the workload verifies every contact
	objects  []*objectSlot
	objIDs   []cert.ID
	l1       int // L1 objects stay visible to revoked subjects
	subjects []*subjectSlot
}

// setupCost is what one fleet build spent in the backend, for the
// backend.* per-layer metrics.
type setupCost struct {
	registerSubjects, registerObjects, provision time.Duration
	nSubjects, nObjects                          int
	total                                        time.Duration
}

// fleet is one fully provisioned and warmed deployment.
type fleet struct {
	w        *workload
	reg      *obs.Registry
	svc      backend.Service
	admin    *cert.Admin
	adminPub suite.PublicKey
	group    groups.ID
	retry    core.RetryPolicy
	cells    []*cell
	objLevel map[cert.ID]backend.Level
	addrSlot sync.Map // qualified transport.Addr → *subjectSlot, for the tracer
	vmemo    *suite.VerifyMemo
	tr       *tracer     // nil on untraced runs
	env      *backendEnv // churn's backend service; nil otherwise
	sample   *backend.SubjectProvision
	cost     setupCost

	// onDiscovery and onApply are installed by the driver before traffic.
	onDiscovery func(*subjectSlot, core.Discovery)
	onApply     func(subject cert.ID)

	mu       sync.RWMutex // guards subjects and each cell's subject slice
	subjects []*subjectSlot
	rekeyed  bool // a revocation has rotated the covert group key
}

var (
	staffPred  = attr.MustParse("position=='staff'")
	devicePred = attr.MustParse("type=='device'")
	staffAttrs = attr.MustSet("position=staff")
	devAttrs   = attr.MustSet("type=device")
)

// levelPattern is the fleet's repeating object level pattern.
var levelPattern = [...]backend.Level{backend.L1, backend.L2, backend.L3, backend.L2}

func levelAt(i int) backend.Level { return levelPattern[i%len(levelPattern)] }

// provisionLocal registers and provisions the whole population through the
// in-process backend's batch APIs.
func provisionLocal(w *workload, reg *obs.Registry) (*backend.Backend, []*backend.SubjectProvision, []*backend.ObjectProvision, groups.ID, setupCost, error) {
	var c setupCost
	b, err := backend.New(suite.S128, backend.WithTelemetry(reg), backend.WithShards(w.cells))
	if err != nil {
		return nil, nil, nil, 0, c, err
	}
	if _, _, err := b.AddPolicy(staffPred, devicePred, []string{"use"}); err != nil {
		return nil, nil, nil, 0, c, err
	}
	grp, err := b.Groups.CreateGroup("bench covert group")
	if err != nil {
		return nil, nil, nil, 0, c, err
	}
	nS, nO := w.cells*w.subjectsPerCell, w.cells*w.objectsPerCell
	sspecs := make([]backend.SubjectSpec, nS)
	for i := range sspecs {
		sspecs[i] = backend.SubjectSpec{Name: fmt.Sprintf("s-%d", i), Attrs: staffAttrs}
	}
	ospecs := make([]backend.ObjectSpec, nO)
	for i := range ospecs {
		ospecs[i] = backend.ObjectSpec{Name: fmt.Sprintf("o-%d", i), Level: levelAt(i), Attrs: devAttrs, Functions: []string{"use"}}
	}
	t0 := time.Now()
	sids, err := b.RegisterSubjects(sspecs, workers)
	if err != nil {
		return nil, nil, nil, 0, c, err
	}
	t1 := time.Now()
	oids, err := b.RegisterObjects(ospecs, workers)
	if err != nil {
		return nil, nil, nil, 0, c, err
	}
	t2 := time.Now()
	for i, oid := range oids {
		if levelAt(i) == backend.L3 {
			if err := b.AddCovertService(oid, grp.ID(), []string{"use", "covert"}); err != nil {
				return nil, nil, nil, 0, c, err
			}
		}
	}
	for _, sid := range sids {
		if err := b.AddSubjectToGroup(sid, grp.ID()); err != nil {
			return nil, nil, nil, 0, c, err
		}
	}
	t3 := time.Now()
	oprovs, err := b.ProvisionObjects(oids, workers)
	if err != nil {
		return nil, nil, nil, 0, c, err
	}
	sprovs := make([]*backend.SubjectProvision, nS)
	for i, sid := range sids {
		if sprovs[i], err = b.ProvisionSubject(sid); err != nil {
			return nil, nil, nil, 0, c, err
		}
	}
	c = setupCost{
		registerSubjects: t1.Sub(t0), registerObjects: t2.Sub(t1), provision: time.Since(t3),
		nSubjects: nS, nObjects: nO,
	}
	return b, sprovs, oprovs, grp.ID(), c, nil
}

// provisionRemote builds the same population one call at a time through a
// backend.Service — the backendclient of the churn workload, so every write
// crosses loopback HTTP into a WAL-fsyncing backendsvc tenant.
func provisionRemote(ctx context.Context, w *workload, svc backend.Service) ([]*backend.SubjectProvision, []*backend.ObjectProvision, groups.ID, setupCost, error) {
	var c setupCost
	if _, _, err := svc.AddPolicy(ctx, staffPred, devicePred, []string{"use"}); err != nil {
		return nil, nil, 0, c, err
	}
	gid, err := svc.CreateGroup(ctx, "bench covert group")
	if err != nil {
		return nil, nil, 0, c, err
	}
	nS, nO := w.cells*w.subjectsPerCell, w.cells*w.objectsPerCell
	t0 := time.Now()
	sids := make([]cert.ID, nS)
	for i := range sids {
		if sids[i], _, err = svc.RegisterSubject(ctx, fmt.Sprintf("s-%d", i), staffAttrs); err != nil {
			return nil, nil, 0, c, err
		}
	}
	t1 := time.Now()
	oids := make([]cert.ID, nO)
	for i := range oids {
		if oids[i], _, err = svc.RegisterObject(ctx, fmt.Sprintf("o-%d", i), levelAt(i), devAttrs, []string{"use"}); err != nil {
			return nil, nil, 0, c, err
		}
	}
	t2 := time.Now()
	for i, oid := range oids {
		if levelAt(i) == backend.L3 {
			if err := svc.AddCovertService(ctx, oid, gid, []string{"use", "covert"}); err != nil {
				return nil, nil, 0, c, err
			}
		}
	}
	for _, sid := range sids {
		if err := svc.AddSubjectToGroup(ctx, sid, gid); err != nil {
			return nil, nil, 0, c, err
		}
	}
	t3 := time.Now()
	oprovs := make([]*backend.ObjectProvision, nO)
	for i, oid := range oids {
		if oprovs[i], err = svc.ProvisionObject(ctx, oid); err != nil {
			return nil, nil, 0, c, err
		}
	}
	sprovs := make([]*backend.SubjectProvision, nS)
	for i, sid := range sids {
		if sprovs[i], err = svc.ProvisionSubject(ctx, sid); err != nil {
			return nil, nil, 0, c, err
		}
	}
	c = setupCost{
		registerSubjects: t1.Sub(t0), registerObjects: t2.Sub(t1), provision: time.Since(t3),
		nSubjects: nS, nObjects: nO,
	}
	return sprovs, oprovs, gid, c, nil
}

// assemble builds every cell, engine and distributor over in-memory Meshes.
func (f *fleet) assemble(sprovs []*backend.SubjectProvision, oprovs []*backend.ObjectProvision) error {
	w := f.w
	f.objLevel = make(map[cert.ID]backend.Level, len(oprovs))
	f.vmemo = suite.NewVerifyMemo(0)
	f.sample = sprovs[0]
	f.cells = make([]*cell, w.cells)
	for ci := range f.cells {
		c := &cell{index: ci, mesh: transport.NewMesh(transport.WithRegistry(f.reg))}
		f.cells[ci] = c
		if w.verifyCache {
			c.vcache = cert.NewVerifyCache(0)
			c.vcache.Instrument(f.reg)
		}
		gw := c.mesh.Join()
		// The gateway only sends, but as a cell member it also hears every
		// discovery broadcast; drain them so its queue never sheds.
		gw.Bind(transport.HandlerFunc(func(transport.Addr, []byte) {}))
		c.dist = update.NewDistributor(f.admin, gw)
		for k := 0; k < w.objectsPerCell; k++ {
			oi := ci*w.objectsPerCell + k
			prov := oprovs[oi]
			var ep transport.Endpoint = c.mesh.Join()
			addr := ep.Addr()
			ep = f.tr.wrap(ep, roleObject, ci)
			var obj *core.Object
			agent := update.NewAgent(f.adminPub, nil, func(n *update.Notification) {
				// Runs on the object's event loop, where Revoke is legal.
				if n.Kind == update.KindRevokeSubject {
					obj.Revoke(n.Subject)
					f.onApply(n.Subject)
				}
			})
			agent.UseVerifyMemo(f.vmemo)
			agent.Instrument(f.reg, nil)
			obj = core.NewObject(prov, wire.V30, core.Costs{},
				core.WithEndpoint(agent.Wrap(ep)),
				core.WithRetry(f.retry),
				core.WithTelemetry(f.reg, nil),
				core.WithVerifyCache(c.vcache))
			lv := levelAt(oi)
			c.objects = append(c.objects, &objectSlot{id: prov.ID, addr: addr, level: lv, eng: obj})
			c.objIDs = append(c.objIDs, prov.ID)
			if lv == backend.L1 {
				c.l1++
			}
			f.objLevel[prov.ID] = lv
			f.tr.noteObject(ci, addr, lv)
			c.dist.Register(prov.ID, addr)
		}
		for k := 0; k < w.subjectsPerCell; k++ {
			f.attach(c, sprovs[ci*w.subjectsPerCell+k], false)
		}
	}
	return nil
}

// attach builds one subject engine in cell c and makes it eligible for
// arrivals.
func (f *fleet) attach(c *cell, prov *backend.SubjectProvision, stale bool) *subjectSlot {
	var ep transport.Endpoint = c.mesh.Join()
	addr := ep.Addr()
	ep = f.tr.wrap(ep, roleSubject, c.index)
	slot := &subjectSlot{id: prov.ID, ep: ep, cell: c, stale: stale}
	slot.eng = core.NewSubject(prov, wire.V30, core.Costs{},
		core.WithEndpoint(ep),
		core.WithRetry(f.retry),
		core.WithTelemetry(f.reg, f.tr.coreTracer(slot, ep)),
		core.WithVerifyCache(c.vcache))
	// The hook write is ordered before any traffic by the mailbox mutex of
	// the first Do that can trigger it.
	slot.eng.OnDiscovery = func(d core.Discovery) { f.onDiscovery(slot, d) }
	f.addrSlot.Store(qualify(c.index, addr), slot)
	f.mu.Lock()
	c.subjects = append(c.subjects, slot)
	f.subjects = append(f.subjects, slot)
	f.mu.Unlock()
	return slot
}

// wantLevel is the ground-truth level subject s must see object obj at:
// L1 objects at L1, L2 at L2, L3 at L3 for a fellow holding the objects'
// group key and at L2 (their cover face) for one holding a newer key.
func (f *fleet) wantLevel(s *subjectSlot, obj cert.ID) backend.Level {
	lv := f.objLevel[obj]
	if lv == backend.L3 && s.stale {
		return backend.L2
	}
	return lv
}

// expectedRound is how many discoveries one round of s must produce: every
// object of its cell, or only the L1 ones once it is revoked.
func (s *subjectSlot) expectedRound() int {
	if s.revoked {
		return s.cell.l1
	}
	return len(s.cell.objects)
}

// snapshotSubjects returns the current subject list.
func (f *fleet) snapshotSubjects() []*subjectSlot {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.subjects
}

// pendingSessions sums open handshakes over every engine.
func (f *fleet) pendingSessions() int {
	n := 0
	for _, s := range f.snapshotSubjects() {
		n += s.eng.PendingSessions()
	}
	for _, c := range f.cells {
		for _, o := range c.objects {
			n += o.eng.PendingSessions()
		}
	}
	return n
}

// close stops every mesh, and churn's backend service; engine loops exit
// with their mailboxes.
func (f *fleet) close() {
	for _, c := range f.cells {
		if c != nil { // assemble may have failed part-way
			c.mesh.Close()
		}
	}
	if f.env != nil {
		f.env.close()
	}
}

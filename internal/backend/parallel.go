package backend

import (
	"fmt"
	"sync"
	"sync/atomic"

	"argus/internal/attr"
	"argus/internal/cert"
	"argus/internal/groups"
	"argus/internal/suite"
)

// Batch registration and provisioning. Bootstrapping a §VIII-scale crowd
// (10³ entities) is per-entity crypto — ECDSA key generation, certificate
// issuance (one DER build, ~2 signatures and x509's check of the final one;
// see cert.createSizedCert) and profile signing — embarrassingly parallel
// work. These entry points fan exactly that work across a worker pool while
// keeping everything observable deterministic:
//
//   - identifiers, certificate serials and churn accounting are assigned
//     serially in request order before any worker starts;
//   - workers write only to their own index, and results merge by index;
//   - all signature and certificate encodings are fixed-size (see
//     suite.SigningKey.Sign and cert.createSizedCert), so the provisioned
//     bundles are byte-structurally identical to the sequential path's — key
//     material differs (it is random either way), wire sizes and therefore
//     fixed-seed simulation transcripts do not.
//
// The Backend itself stays single-threaded: shared maps are only touched
// before the fan-out and after the merge.

// SubjectSpec describes one subject in a batch registration.
type SubjectSpec struct {
	Name  string
	Attrs attr.Set
}

// ObjectSpec describes one object in a batch registration.
type ObjectSpec struct {
	Name      string
	Level     Level
	Attrs     attr.Set
	Functions []string
}

// RegisterSubjects registers the given subjects like repeated RegisterSubject
// calls, running key generation and certificate issuance on up to `workers`
// goroutines (workers <= 1 is fully sequential). IDs return in spec order.
func (b *Backend) RegisterSubjects(specs []SubjectSpec, workers int) ([]cert.ID, error) {
	ids, keys, chains, err := b.registerBatch(len(specs), workers, cert.RoleSubject,
		func(i int) string { return specs[i].Name })
	if err != nil {
		return nil, err
	}
	for i, sp := range specs {
		b.keys[ids[i]] = keys[i]
		b.certs[ids[i]] = chains[i]
		b.subjects[ids[i]] = &SubjectRecord{ID: ids[i], Name: sp.Name, Attrs: sp.Attrs.Clone()}
		b.countChurn("register_subject", UpdateReport{})
	}
	return ids, nil
}

// RegisterObjects registers the given objects like repeated RegisterObject
// calls, parallelizing the per-entity crypto. IDs return in spec order.
func (b *Backend) RegisterObjects(specs []ObjectSpec, workers int) ([]cert.ID, error) {
	for _, sp := range specs {
		if !sp.Level.Valid() {
			return nil, fmt.Errorf("%w: %d", ErrInvalidLevel, int(sp.Level))
		}
	}
	ids, keys, chains, err := b.registerBatch(len(specs), workers, cert.RoleObject,
		func(i int) string { return specs[i].Name })
	if err != nil {
		return nil, err
	}
	for i, sp := range specs {
		b.keys[ids[i]] = keys[i]
		b.certs[ids[i]] = chains[i]
		b.objects[ids[i]] = &ObjectRecord{
			ID: ids[i], Name: sp.Name, Level: sp.Level,
			Attrs:     sp.Attrs.Clone(),
			Functions: append([]string(nil), sp.Functions...),
			covert:    make(map[groups.ID][]string),
			revoked:   make(map[cert.ID]bool),
		}
		b.countChurn("register_object", UpdateReport{NotifiedObjects: []cert.ID{ids[i]}})
	}
	return ids, nil
}

// registerBatch performs the shared crypto fan-out: duplicate checks and ID
// derivation serially up front, then parallel key generation, then batch
// certificate issuance (which reserves serials in index order itself).
// Nothing is written to Backend state — callers merge on success.
func (b *Backend) registerBatch(n, workers int, role cert.Role, name func(int) string) ([]cert.ID, []*suite.SigningKey, [][]byte, error) {
	ids := make([]cert.ID, n)
	seen := make(map[cert.ID]bool, n)
	for i := 0; i < n; i++ {
		id := cert.IDFromName(name(i))
		if _, dup := b.keys[id]; dup || seen[id] {
			return nil, nil, nil, fmt.Errorf("%w: %q", ErrDuplicate, name(i))
		}
		seen[id] = true
		ids[i] = id
	}
	keys := make([]*suite.SigningKey, n)
	if err := forEachIndex(n, workers, func(i int) error {
		key, err := suite.GenerateSigningKey(b.strength, nil)
		keys[i] = key
		return err
	}); err != nil {
		return nil, nil, nil, err
	}
	reqs := make([]cert.CertRequest, n)
	for i := 0; i < n; i++ {
		reqs[i] = cert.CertRequest{ID: ids[i], Name: name(i), Role: role, Pub: keys[i].Public()}
	}
	chains, err := b.admin.IssueCertChainBatch(reqs, workers)
	if err != nil {
		return nil, nil, nil, err
	}
	return ids, keys, chains, nil
}

// ProvisionObjects assembles the credential bundles of many objects on up to
// `workers` goroutines, returning them in id order. Safe because
// ProvisionObject only reads shared backend state (records, policies, group
// memberships — object-side membership lookups create nothing) and profile
// signing uses the immutable admin key; each worker writes its own index.
//
// On a sharded backend (WithShards) the batch is partitioned by ShardOf and
// each cell/building shard gets its own worker pool, all pools running
// concurrently — PROF-variant compilation for one building never queues
// behind another's. Output order stays the input id order either way.
func (b *Backend) ProvisionObjects(ids []cert.ID, workers int) ([]*ObjectProvision, error) {
	out := make([]*ObjectProvision, len(ids))
	provision := func(i int) error {
		p, err := b.ProvisionObject(ids[i])
		out[i] = p
		return err
	}
	if b.shards <= 1 {
		if err := forEachIndex(len(ids), workers, provision); err != nil {
			return nil, err
		}
		return out, nil
	}
	if err := b.forEachShard(ids, workers, provision); err != nil {
		return nil, err
	}
	return out, nil
}

// forEachShard partitions ids by ShardOf and runs fn over each partition on
// its own worker pool, all shards concurrently. The per-shard pools split
// the worker budget so total parallelism stays ≈ workers; every shard gets
// at least one. The first error (by shard, then index) wins.
func (b *Backend) forEachShard(ids []cert.ID, workers int, fn func(i int) error) error {
	byShard := make([][]int, b.shards)
	for i, id := range ids {
		s := b.ShardOf(id)
		byShard[s] = append(byShard[s], i)
	}
	perShard := workers / b.shards
	if perShard < 1 {
		perShard = 1
	}
	errs := make([]error, b.shards)
	var wg sync.WaitGroup
	for s, idx := range byShard {
		if len(idx) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, idx []int) {
			defer wg.Done()
			errs[s] = forEachIndex(len(idx), perShard, func(k int) error {
				return fn(idx[k])
			})
		}(s, idx)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forEachIndex runs fn(0..n-1) on up to `workers` goroutines (sequentially
// for workers <= 1) and returns the first error by index order. Mirrors the
// unexported helper in internal/cert.
func forEachIndex(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

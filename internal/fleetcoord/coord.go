package fleetcoord

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"argus/internal/attr"
	"argus/internal/backend"
	"argus/internal/backendclient"
	"argus/internal/load"
	"argus/internal/obs"
	"argus/internal/suite"
	"argus/internal/transport"
)

// Config describes the fleet the coordinator shards out.
type Config struct {
	Procs           int
	Cells           int
	SubjectsPerCell int
	ObjectsPerCell  int

	// BinPath + BaseArgs launch one child: exec(BinPath, BaseArgs...,
	// <shard flags>). For argus-node: BaseArgs = ["-role","shard","--"].
	BinPath  string
	BaseArgs []string
	// Env entries are appended to the children's inherited environment
	// (the test trampoline rides on this).
	Env []string

	// Trust source: with BackendURL set the fleet registers into (and the
	// shards provision from) a live argus-backend; otherwise the
	// coordinator provisions a local backend and writes its snapshot to
	// WorkDir for the shards to restore.
	BackendURL, Tenant, AuthKey string

	// WorkDir holds the snapshot and the address file. Required.
	WorkDir string

	// TrialSLO gates each trial window (load.TrialSLO of a profile SLO);
	// MaxSkipFrac bounds the open-loop skip fraction (<=0 = 5%).
	TrialSLO    load.SLO
	MaxSkipFrac float64

	LaunchTimeout time.Duration
	Logf          func(format string, args ...any)
}

func (c Config) withDefaults() (Config, error) {
	if c.Procs < 1 || c.Cells < 1 || c.SubjectsPerCell < 1 || c.ObjectsPerCell < 1 {
		return c, fmt.Errorf("fleetcoord: non-positive topology: %+v", c)
	}
	if c.BinPath == "" {
		return c, fmt.Errorf("fleetcoord: BinPath is required")
	}
	if c.WorkDir == "" {
		return c, fmt.Errorf("fleetcoord: WorkDir is required")
	}
	if c.LaunchTimeout <= 0 {
		c.LaunchTimeout = 60 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c, nil
}

// Verdict is one multi-process trial's merged outcome.
type Verdict struct {
	Procs   int        `json:"procs"`
	Offered float64    `json:"offered_sessions_per_second"`
	Trial   load.Trial `json:"trial"`
	// ProcErrors documents children that died during the trial; each one is
	// also folded into Trial.Violations, so a degraded fleet fails loudly
	// instead of passing on the survivors' clean counters.
	ProcErrors []string `json:"proc_errors,omitempty"`
}

// proc is one child process's coordinator-side state. mu guards everything
// the stdout-scanner and Wait goroutines write.
type proc struct {
	index int
	cmd   *exec.Cmd
	stdin io.WriteCloser

	mu        sync.Mutex
	obsAddr   string
	objAddrs  map[[2]int]string
	ready     bool
	armed     bool
	sweeps    int
	trials    int
	sweepSess int64
	sweepSecs float64
	exited    bool
	exitErr   error
}

func (p *proc) state() (ready, armed, exited bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ready, p.armed, p.exited
}

// Coordinator owns the children for one multi-process run.
type Coordinator struct {
	cfg   Config
	procs []*proc

	// Warm sweep measurement across the fleet, for scale-model calibration.
	WarmSessions int64
	WarmSeconds  float64
}

// Launch provisions the enterprise, spawns the shards, distributes the
// object addresses and waits until every shard reports armed.
func Launch(cfg Config) (*Coordinator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	snapPath := filepath.Join(cfg.WorkDir, "fleet.snap")
	if err := provisionFleet(cfg, snapPath); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(cfg.WorkDir, "objects.addr")

	co := &Coordinator{cfg: cfg}
	ok := false
	defer func() {
		if !ok {
			co.kill()
		}
	}()
	for i := 0; i < cfg.Procs; i++ {
		args := append(append([]string(nil), cfg.BaseArgs...),
			"-shard-index", strconv.Itoa(i),
			"-shards", strconv.Itoa(cfg.Procs),
			"-cells", strconv.Itoa(cfg.Cells),
			"-subjects-per-cell", strconv.Itoa(cfg.SubjectsPerCell),
			"-objects-per-cell", strconv.Itoa(cfg.ObjectsPerCell),
			"-addr-file", addrFile,
			"-seed", strconv.Itoa(i+1),
		)
		if cfg.BackendURL != "" {
			args = append(args, "-backend", cfg.BackendURL, "-tenant", cfg.Tenant, "-auth-key", cfg.AuthKey)
		} else {
			args = append(args, "-snapshot", snapPath)
		}
		p := &proc{index: i, objAddrs: map[[2]int]string{}}
		p.cmd = exec.Command(cfg.BinPath, args...)
		p.cmd.Env = append(os.Environ(), cfg.Env...)
		p.cmd.Stderr = os.Stderr
		stdout, err := p.cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		p.stdin, err = p.cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		if err := p.cmd.Start(); err != nil {
			return nil, fmt.Errorf("fleetcoord: start shard %d: %w", i, err)
		}
		co.procs = append(co.procs, p)
		go p.scan(stdout, cfg.Logf)
		go func(p *proc) {
			err := p.cmd.Wait()
			p.mu.Lock()
			p.exited, p.exitErr = true, err
			p.mu.Unlock()
		}(p)
	}

	// Readiness barrier 1: every shard has bound its object sockets.
	if err := co.await(cfg.LaunchTimeout, func(p *proc) bool { r, _, _ := p.state(); return r }, "object readiness"); err != nil {
		return nil, err
	}
	// Distribute the union of object addresses, atomically (tmp + rename)
	// so no shard ever reads a torn file.
	var lines []string
	for _, p := range co.procs {
		p.mu.Lock()
		for key, addr := range p.objAddrs {
			lines = append(lines, fmt.Sprintf("cell=%d idx=%d addr=%s", key[0], key[1], addr))
		}
		p.mu.Unlock()
	}
	sort.Strings(lines)
	if len(lines) != cfg.Cells*cfg.ObjectsPerCell {
		return nil, fmt.Errorf("fleetcoord: %d object addresses announced, want %d", len(lines), cfg.Cells*cfg.ObjectsPerCell)
	}
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		return nil, err
	}
	// Readiness barrier 2: every shard has peered its subjects.
	if err := co.await(cfg.LaunchTimeout, func(p *proc) bool { _, a, _ := p.state(); return a }, "subject arming"); err != nil {
		return nil, err
	}
	cfg.Logf("fleetcoord: %d shards armed (%d cells, %d subj + %d obj per cell)",
		cfg.Procs, cfg.Cells, cfg.SubjectsPerCell, cfg.ObjectsPerCell)
	ok = true
	return co, nil
}

// provisionFleet registers the whole population through the Service seam —
// a local backend snapshotted to disk, or a live argus-backend over HTTP.
func provisionFleet(cfg Config, snapPath string) error {
	ctx := context.Background()
	var svc backend.Service
	var local *backend.Backend
	if cfg.BackendURL != "" {
		svc = backendclient.New(cfg.BackendURL, cfg.Tenant, cfg.AuthKey)
	} else {
		b, err := backend.New(suite.S128)
		if err != nil {
			return err
		}
		local, svc = b, backend.NewLocal(b)
	}
	if _, _, err := svc.AddPolicy(ctx,
		attr.MustParse("position=='staff'"),
		attr.MustParse("type=='device'"),
		[]string{"use"}); err != nil {
		return fmt.Errorf("fleetcoord: policy: %w", err)
	}
	for c := 0; c < cfg.Cells; c++ {
		for k := 0; k < cfg.ObjectsPerCell; k++ {
			if _, _, err := svc.RegisterObject(ctx, ObjectName(c, k), backend.L2,
				attr.MustSet("type=device"), []string{"use"}); err != nil {
				return fmt.Errorf("fleetcoord: register %s: %w", ObjectName(c, k), err)
			}
		}
		for k := 0; k < cfg.SubjectsPerCell; k++ {
			if _, _, err := svc.RegisterSubject(ctx, SubjectName(c, k),
				attr.MustSet("position=staff")); err != nil {
				return fmt.Errorf("fleetcoord: register %s: %w", SubjectName(c, k), err)
			}
		}
	}
	if local != nil {
		if err := os.WriteFile(snapPath, local.Snapshot(), 0o600); err != nil {
			return err
		}
	}
	return nil
}

// scan consumes one child's stdout readiness protocol.
func (p *proc) scan(r io.Reader, logf func(string, ...any)) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		p.mu.Lock()
		switch {
		case strings.HasPrefix(line, "obs listening addr="):
			p.obsAddr = strings.TrimPrefix(line, "obs listening addr=")
		case strings.HasPrefix(line, "shardobj "):
			var c, k int
			var a string
			if _, err := fmt.Sscanf(line, "shardobj cell=%d idx=%d addr=%s", &c, &k, &a); err == nil {
				p.objAddrs[[2]int{c, k}] = a
			}
		case strings.HasPrefix(line, "shard ready"):
			p.ready = true
		case strings.HasPrefix(line, "shard armed"):
			p.armed = true
		case strings.HasPrefix(line, "sweep done"):
			var sess int64
			var secs float64
			if _, err := fmt.Sscanf(line, "sweep done sessions=%d seconds=%f", &sess, &secs); err == nil {
				p.sweepSess, p.sweepSecs = sess, secs
			}
			p.sweeps++
		case strings.HasPrefix(line, "trial done"):
			p.trials++
		}
		p.mu.Unlock()
		logf("fleetcoord: shard %d: %s", p.index, line)
	}
}

// await polls until cond holds for every child, failing fast when any child
// exits before reaching it.
func (co *Coordinator) await(timeout time.Duration, cond func(*proc) bool, what string) error {
	ok := transport.Poll(timeout, 20*time.Millisecond, func() bool {
		for _, p := range co.procs {
			if cond(p) {
				continue
			}
			if _, _, exited := p.state(); exited {
				return true // fail fast below
			}
			return false
		}
		return true
	})
	for _, p := range co.procs {
		if cond(p) {
			continue
		}
		p.mu.Lock()
		exited, exitErr := p.exited, p.exitErr
		p.mu.Unlock()
		if exited {
			return fmt.Errorf("fleetcoord: shard %d exited before %s: %v", p.index, what, exitErr)
		}
		if !ok {
			return fmt.Errorf("fleetcoord: shard %d did not reach %s in %s", p.index, what, timeout)
		}
	}
	return nil
}

// live returns the children still running.
func (co *Coordinator) live() []*proc {
	var out []*proc
	for _, p := range co.procs {
		if _, _, exited := p.state(); !exited {
			out = append(out, p)
		}
	}
	return out
}

// subjectsOf counts the subjects a shard owns — the weight its slice of the
// offered rate is proportional to.
func (co *Coordinator) subjectsOf(index int) int {
	n := 0
	for c := 0; c < co.cfg.Cells; c++ {
		if cellSubjOwner(c, co.cfg.Procs) == index {
			n += co.cfg.SubjectsPerCell
		}
	}
	return n
}

// Sweep runs one closed warm wave on every shard and records the fleet-wide
// per-session cost for the scale model.
func (co *Coordinator) Sweep() error {
	live := co.live()
	if len(live) == 0 {
		return fmt.Errorf("fleetcoord: no live shards")
	}
	before := make(map[int]int, len(live))
	for _, p := range live {
		p.mu.Lock()
		before[p.index] = p.sweeps
		p.mu.Unlock()
		if _, err := io.WriteString(p.stdin, "sweep\n"); err != nil {
			return fmt.Errorf("fleetcoord: shard %d: %w", p.index, err)
		}
	}
	if err := co.awaitCount(60*time.Second, live, func(p *proc) int { return p.sweeps }, before, "sweep"); err != nil {
		return err
	}
	co.WarmSessions, co.WarmSeconds = 0, 0
	for _, p := range live {
		p.mu.Lock()
		co.WarmSessions += p.sweepSess
		if p.sweepSecs > co.WarmSeconds {
			// Shards sweep concurrently; the fleet's wall time is the
			// slowest shard's.
			co.WarmSeconds = p.sweepSecs
		}
		p.mu.Unlock()
	}
	return nil
}

// awaitCount waits until each listed child's counter advances past its
// before-value — or the child exits, which is not an error here: the trial
// verdict folds the death in as a violation instead.
func (co *Coordinator) awaitCount(timeout time.Duration, procs []*proc, get func(*proc) int, before map[int]int, what string) error {
	ok := transport.Poll(timeout, 20*time.Millisecond, func() bool {
		for _, p := range procs {
			p.mu.Lock()
			done := get(p) > before[p.index]
			exited := p.exited
			p.mu.Unlock()
			if !done && !exited {
				return false
			}
		}
		return true
	})
	if !ok {
		return fmt.Errorf("fleetcoord: %s did not complete in %s", what, timeout)
	}
	return nil
}

// scrape fetches one child's obs snapshot over its HTTP endpoint.
func scrape(obsAddr string) (*obs.Snapshot, error) {
	resp, err := http.Get("http://" + obsAddr + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return obs.ParseSnapshot(blob)
}

// Trial offers `offered` sessions/s fleet-wide for dur, splitting the
// arrival rate across shards by their subject share, and judges the merged
// per-process snapshot diffs with the same gates as the in-process search.
// A child that dies mid-trial degrades the verdict (documented violation)
// rather than hanging the coordinator or silently passing.
func (co *Coordinator) Trial(offered float64, dur time.Duration) (Verdict, error) {
	v := Verdict{Procs: co.cfg.Procs, Offered: offered}
	// Any already-dead child degrades this verdict too: its slice of the
	// fleet is dark, so a clean merge over the survivors would overstate
	// what the configured process count sustains.
	for _, p := range co.procs {
		p.mu.Lock()
		exited, exitErr := p.exited, p.exitErr
		p.mu.Unlock()
		if exited {
			v.ProcErrors = append(v.ProcErrors, fmt.Sprintf("process %d exited early: %v", p.index, exitErr))
		}
	}
	live := co.live()
	if len(live) == 0 {
		return v, fmt.Errorf("fleetcoord: no live shards")
	}
	totalSubj := 0
	for _, p := range live {
		totalSubj += co.subjectsOf(p.index)
	}
	if totalSubj == 0 {
		return v, fmt.Errorf("fleetcoord: live shards own no subjects")
	}
	arrivals := offered / float64(co.cfg.ObjectsPerCell)

	before := make(map[int]*obs.Snapshot, len(live))
	counts := make(map[int]int, len(live))
	for _, p := range live {
		p.mu.Lock()
		obsAddr := p.obsAddr
		counts[p.index] = p.trials
		p.mu.Unlock()
		snap, err := scrape(obsAddr)
		if err != nil {
			return v, fmt.Errorf("fleetcoord: scrape shard %d: %w", p.index, err)
		}
		before[p.index] = snap
	}
	for _, p := range live {
		share := arrivals * float64(co.subjectsOf(p.index)) / float64(totalSubj)
		cmd := fmt.Sprintf("trial %.4f %d\n", share, dur.Milliseconds())
		if _, err := io.WriteString(p.stdin, cmd); err != nil {
			// A write to a just-died child: degrade, don't abort.
			v.ProcErrors = append(v.ProcErrors, fmt.Sprintf("process %d rejected trial command: %v", p.index, err))
		}
	}
	// The window plus the shard's own drain + quiesce, with slack.
	wait := dur + shardRetry().SessionTTL + 25*time.Second
	if err := co.awaitCount(wait, live, func(p *proc) int { return p.trials }, counts, "trial"); err != nil {
		return v, err
	}

	var diffs []*obs.Snapshot
	for _, p := range live {
		p.mu.Lock()
		obsAddr := p.obsAddr
		exited, exitErr := p.exited, p.exitErr
		p.mu.Unlock()
		if exited {
			v.ProcErrors = append(v.ProcErrors, fmt.Sprintf("process %d exited mid-trial: %v", p.index, exitErr))
			continue
		}
		after, err := scrape(obsAddr)
		if err != nil {
			v.ProcErrors = append(v.ProcErrors, fmt.Sprintf("process %d unreachable after trial: %v", p.index, err))
			continue
		}
		diffs = append(diffs, obs.DiffSnapshots(after, before[p.index]))
	}
	merged := obs.MergeSnapshots(diffs...)
	rep := load.SnapshotReport(merged)
	v.Trial = load.EvalTrial(offered, dur.Seconds(), float64(co.cfg.ObjectsPerCell), rep, co.cfg.TrialSLO, co.cfg.MaxSkipFrac)
	if len(v.ProcErrors) > 0 {
		v.Trial.Violations = append(v.Trial.Violations, v.ProcErrors...)
		v.Trial.Pass = false
	}
	return v, nil
}

// Close asks every live child to quit, then kills stragglers.
func (co *Coordinator) Close() {
	for _, p := range co.live() {
		_, _ = io.WriteString(p.stdin, "quit\n")
	}
	done := transport.Poll(5*time.Second, 20*time.Millisecond, func() bool {
		return len(co.live()) == 0
	})
	if !done {
		co.kill()
	}
}

// Kill force-terminates one child — the e2e crash test's murder weapon.
func (co *Coordinator) Kill(index int) error {
	if index < 0 || index >= len(co.procs) {
		return fmt.Errorf("fleetcoord: no shard %d", index)
	}
	p := co.procs[index]
	if err := p.cmd.Process.Kill(); err != nil {
		return err
	}
	transport.Poll(5*time.Second, 10*time.Millisecond, func() bool {
		_, _, exited := p.state()
		return exited
	})
	return nil
}

func (co *Coordinator) kill() {
	for _, p := range co.procs {
		if p.cmd != nil && p.cmd.Process != nil {
			_ = p.cmd.Process.Kill()
		}
	}
	transport.Poll(5*time.Second, 20*time.Millisecond, func() bool {
		return len(co.live()) == 0
	})
}

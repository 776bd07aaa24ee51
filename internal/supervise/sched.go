package supervise

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/pycompile"
	"repro/internal/runtime"
)

// Sched is the continuous-batching scheduler that executes every served
// job. Jobs are admitted into per-lane, per-tenant queues and granted
// execution slots one step-quantum at a time; at each quantum boundary
// the VM's governor calls back into the scheduler (interp.VM.SetYield),
// which may park the job's goroutine — Python frame stack and governor
// state stay live in the VM, no Go-stack capture — and grant the slot to
// another job. An over-budget job is preempted back to its queue, never
// condemned: preemption is a scheduling decision, condemnation is a
// health verdict, and the two paths never mix.
//
// Invariants:
//
//   - at most Slots jobs are RUNNING at once; at most MaxResident jobs
//     hold a live VM (started but unfinished), bounding memory however
//     long the admission queue grows;
//   - the uncontended path is wait-free: a yield with no waiters is one
//     atomic load (the ≤2% single-job overhead gate in benchgate);
//   - parked time is credited to the job's wall-clock deadline by the
//     governor, so scheduling delay never trips a job's own budget;
//   - scheduling emits no interpreter micro-events, so interleaving is
//     invisible in the paper's Table-II attribution.
type Sched struct {
	cfg SchedConfig

	mu   sync.Mutex
	cond *sync.Cond // broadcast when a job leaves the system (Drain)

	lanes []*laneState

	running      int // jobs currently granted a slot
	resident     int // jobs holding a live VM (started, unfinished)
	inflight     int // admitted, unfinished jobs
	heapReserved uint64

	// activeRunning is the wedge-scan set: granted jobs that should be
	// making progress (heartbeating from the governor yield path).
	activeRunning map[*schedJob]struct{}

	// free is the warm-Runner free list, per (mode, attributed).
	free [runtime.NumModes][2][]*schedRunner

	draining bool
	closed   bool

	stats Stats

	// waiting counts jobs sitting in queues (unstarted + parked). The
	// yield fast path reads it lock-free: zero waiters means keep running.
	waiting atomic.Int32

	maintStop chan struct{}
	maintDone chan struct{}
}

// SchedConfig parameterizes a Sched. Zero values take the documented
// defaults.
type SchedConfig struct {
	// Slots is how many jobs execute concurrently (default 4).
	Slots int
	// QuantumSteps is the preemption granularity: a running job reaches
	// a yield point every this many bytecodes (default 50k, ~sub-ms).
	QuantumSteps uint64
	// Lanes is the number of strict-priority lanes; lane 0 is served
	// first (default 2). Job.Lane is clamped into range.
	Lanes int
	// MaxInFlight bounds admitted-but-unfinished jobs; beyond it Submit
	// sheds (default 64 x Slots) — this is what lets thousands of
	// requests queue without each holding a VM.
	MaxInFlight int
	// MaxResident bounds jobs holding a live VM (default 4 x Slots,
	// clamped to at least Slots). Queued jobs past it wait unstarted.
	MaxResident int
	// HeapWatermark bounds the summed heap reservations of resident
	// jobs (default 1 GiB). A job is not started past it; a single job
	// reserving more than the watermark is shed at admission.
	HeapWatermark uint64
	// RecycleAfter retires a Runner after this many jobs (default 256).
	RecycleAfter int
	// DefaultLimits fills any zero field of a job's Limits. Deadline
	// defaults to 5s: a scheduled job always has a wall-clock bound, or
	// the wedge horizon could not be derived.
	DefaultLimits interp.Limits
	// WedgeSlack pads the per-job wedge horizon: a granted job that
	// neither yields nor finishes within deadline*wedgeFactor +
	// WedgeSlack is declared wedged (default 250ms).
	WedgeSlack time.Duration
	// MaintInterval paces the wedge scan (default 25ms).
	MaintInterval time.Duration
	// Faults, when non-nil, injects scheduler-layer chaos (WorkerWedge
	// stalls a job's first slice past the wedge horizon).
	Faults *faults.Injector
	// Metrics, when non-nil, mirrors scheduler activity into telemetry.
	Metrics *Metrics
}

func (c *SchedConfig) setDefaults() {
	if c.Slots <= 0 {
		c.Slots = 4
	}
	if c.QuantumSteps == 0 {
		c.QuantumSteps = 50_000
	}
	if c.Lanes <= 0 {
		c.Lanes = 2
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64 * c.Slots
	}
	if c.MaxResident <= 0 {
		c.MaxResident = 4 * c.Slots
	}
	if c.MaxResident < c.Slots {
		c.MaxResident = c.Slots
	}
	if c.HeapWatermark == 0 {
		c.HeapWatermark = 1 << 30
	}
	if c.RecycleAfter <= 0 {
		c.RecycleAfter = 256
	}
	if c.DefaultLimits.Deadline == 0 {
		c.DefaultLimits.Deadline = 5 * time.Second
	}
	if c.WedgeSlack <= 0 {
		c.WedgeSlack = 250 * time.Millisecond
	}
	if c.MaintInterval <= 0 {
		c.MaintInterval = 25 * time.Millisecond
	}
}

// laneState is one strict-priority lane: per-tenant FIFO queues served
// deficit-round-robin. Each ring visit tops a tenant's deficit up by one
// quantum and serving a slice spends one quantum, so tenants in a lane
// converge to equal step rates regardless of how many jobs each has
// queued.
type laneState struct {
	tenants map[string]*tenantQ
	ring    []*tenantQ // active (non-empty) tenants, round-robin order
	cursor  int
}

type tenantQ struct {
	name    string
	deficit int64 // steps of credit, bounded by one quantum
	jobs    []*schedJob
}

// schedRunner wraps a warm Runner with its recycle counter.
type schedRunner struct {
	r    *runtime.Runner
	jobs int
}

// schedJob is the scheduler's per-job state.
type schedJob struct {
	job     *Job
	limits  interp.Limits
	reserve uint64
	lane    int
	tenant  string

	reply chan *JobResult // buffered 1; exactly one of finish/wedge/shed sends
	grant chan struct{}   // buffered 1; signalled on each (re-)grant

	started   bool
	sr        *schedRunner
	abandoned bool // wedge verdict delivered; discard the job on next contact
	done      bool

	preemptions int
	events      []LifeEvent
	lastState   LifeState
	lastNoteAt  time.Time
	runNanos    int64 // accumulated RUNNING time
	submitAt    time.Time
	firstGrant  time.Time
	watchdog    time.Duration

	// lastBeat is the wedge-scan heartbeat (unix nanos), stored by the
	// job's goroutine on every governor yield, read by the scan.
	lastBeat atomic.Int64
}

// maxLifeEvents caps a result's recorded lifecycle trace; a job preempted
// thousands of times keeps its counters exact but not every transition.
const maxLifeEvents = 32

// NewSched builds and starts a scheduler.
func NewSched(cfg SchedConfig) *Sched {
	cfg.setDefaults()
	s := &Sched{
		cfg:           cfg,
		lanes:         make([]*laneState, cfg.Lanes),
		activeRunning: make(map[*schedJob]struct{}),
		maintStop:     make(chan struct{}),
		maintDone:     make(chan struct{}),
	}
	for i := range s.lanes {
		s.lanes[i] = &laneState{tenants: make(map[string]*tenantQ)}
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.Metrics != nil {
		s.registerGauges(cfg.Metrics)
	}
	go s.maintain()
	return s
}

// effectiveLimits resolves a job's budgets against the scheduler
// defaults via the canonical api.Limits.WithDefaults. The result always
// has a positive Deadline when the default does: a non-positive per-job
// deadline (including one produced by an integer overflow upstream)
// falls back to the default rather than poisoning the wedge-horizon
// derivation, where a negative deadline would declare a healthy job
// wedged on the next scan.
func (s *Sched) effectiveLimits(job *Job) interp.Limits {
	return job.Limits.WithDefaults(s.cfg.DefaultLimits)
}

// wedgeFactor scales a job's deadline into its wedge horizon.
const wedgeFactor = 2

// maxWatchdog caps the wedge horizon when the multiply below would
// overflow. A day-long horizon is already "never" for a served job; the
// point is that the cap is large and positive, not precise.
const maxWatchdog = 24 * time.Hour

// jobWatchdog is how long a granted job may go without yielding or
// finishing before the scan declares it wedged: a multiple of the job's
// own wall-clock budget plus slack, so a healthy limit trip always beats
// it. The arithmetic saturates: an enormous (but valid) deadline must
// degrade to a distant horizon, never wrap negative and condemn the job
// on the spot.
func (s *Sched) jobWatchdog(l interp.Limits) time.Duration {
	d := l.Deadline
	wd := d * wedgeFactor
	if wd/wedgeFactor != d || wd <= 0 || wd > maxWatchdog {
		wd = maxWatchdog
	}
	if wd += s.cfg.WedgeSlack; wd <= 0 {
		wd = maxWatchdog
	}
	return wd
}

// shedLocked builds a rejection result, Retry-After hinted from the
// backlog per slot.
func (s *Sched) shedLocked(job *Job, why string) *JobResult {
	s.stats.Shed++
	s.cfg.Metrics.event(evShed)
	ahead := int(s.waiting.Load()) + s.running + 1
	per := s.cfg.DefaultLimits.Deadline
	retry := per * time.Duration(ahead) / time.Duration(max(1, s.cfg.Slots))
	if retry < 10*time.Millisecond {
		retry = 10 * time.Millisecond
	}
	return &JobResult{
		Class:      ClassShed,
		Err:        "shed: " + why,
		Mode:       job.Mode,
		Worker:     -1,
		RetryAfter: retry,
	}
}

// Submit runs one job to completion through the scheduler and always
// returns a non-nil result. Safe for concurrent use; the calling
// goroutine blocks until the job finishes, is shed, or is declared
// wedged.
func (s *Sched) Submit(job *Job) *JobResult {
	res := s.submit(job)
	s.cfg.Metrics.observeJob(res)
	return res
}

func (s *Sched) submit(job *Job) *JobResult {
	now := time.Now()
	limits := s.effectiveLimits(job)
	j := &schedJob{
		job:      job,
		limits:   limits,
		reserve:  limits.MaxHeapBytes,
		lane:     clampLane(job.Lane, s.cfg.Lanes),
		tenant:   job.Tenant,
		reply:    make(chan *JobResult, 1),
		grant:    make(chan struct{}, 1),
		submitAt: now,
		watchdog: s.jobWatchdog(limits),
	}

	s.mu.Lock()
	s.stats.Submitted++
	switch {
	case s.closed || s.draining:
		res := s.shedLocked(job, "scheduler is draining")
		s.mu.Unlock()
		return res
	case s.inflight >= s.cfg.MaxInFlight:
		res := s.shedLocked(job, "in-flight limit reached")
		s.mu.Unlock()
		return res
	case s.reserveOverWatermark(j):
		res := s.shedLocked(job, "heap reservation watermark reached")
		s.mu.Unlock()
		return res
	}
	s.inflight++
	j.note(s, LifeQueued, now)
	s.enqueueLocked(j)
	s.grantLocked()
	s.mu.Unlock()

	res := <-j.reply
	s.mu.Lock()
	s.inflight--
	s.cond.Broadcast()
	s.mu.Unlock()
	return res
}

// reserveOverWatermark: a job whose reservation alone exceeds the
// watermark could never be started — shed it at admission rather than
// queue it forever. Jobs that merely don't fit *right now* wait.
func (s *Sched) reserveOverWatermark(j *schedJob) bool {
	return j.reserve > s.cfg.HeapWatermark
}

func clampLane(lane, lanes int) int {
	if lane < 0 {
		return 0
	}
	if lane >= lanes {
		return lanes - 1
	}
	return lane
}

// enqueueLocked appends j to the back of its tenant's FIFO, activating
// the tenant in the lane ring if it was idle.
func (s *Sched) enqueueLocked(j *schedJob) {
	ls := s.lanes[j.lane]
	t := ls.tenants[j.tenant]
	if t == nil {
		t = &tenantQ{name: j.tenant}
		ls.tenants[j.tenant] = t
	}
	if len(t.jobs) == 0 {
		// (Re)activating: forfeit credit hoarded while idle.
		t.deficit = 0
		ls.ring = append(ls.ring, t)
	}
	t.jobs = append(t.jobs, j)
	s.waiting.Add(1)
}

// grantLocked fills free slots from the queues: highest-priority
// non-empty lane first, deficit-round-robin across that lane's tenants.
// A started (parked) job is always grantable — it already holds its VM;
// an unstarted job needs a resident slot and heap headroom.
func (s *Sched) grantLocked() {
	for s.running < s.cfg.Slots {
		j := s.pickLocked()
		if j == nil {
			return
		}
		s.running++
		now := time.Now()
		j.lastBeat.Store(now.UnixNano())
		j.note(s, LifeScheduled, now)
		s.activeRunning[j] = struct{}{}
		if !j.started {
			j.started = true
			s.resident++
			s.heapReserved += j.reserve
			j.firstGrant = now
			go s.run(j)
			continue
		}
		j.grant <- struct{}{}
	}
}

// pickLocked implements the two-level policy: strict priority across
// lanes, deficit round robin across tenants within a lane. Each ring
// visit tops the tenant's credit up by one quantum; granting a slice
// spends one quantum. Returns nil when nothing grantable is queued.
func (s *Sched) pickLocked() *schedJob {
	for _, ls := range s.lanes {
		for visits := 0; visits < len(ls.ring); visits++ {
			if ls.cursor >= len(ls.ring) {
				ls.cursor = 0
			}
			t := ls.ring[ls.cursor]
			if t.deficit < int64(s.cfg.QuantumSteps) {
				t.deficit += int64(s.cfg.QuantumSteps)
			}
			j := s.popGrantableLocked(t)
			if j == nil {
				// Nothing startable in this tenant right now (resident or
				// heap pressure); try the next.
				ls.cursor++
				continue
			}
			t.deficit -= int64(s.cfg.QuantumSteps)
			if len(t.jobs) == 0 {
				ls.ring = append(ls.ring[:ls.cursor], ls.ring[ls.cursor+1:]...)
				delete(ls.tenants, t.name)
			} else {
				ls.cursor++
			}
			s.waiting.Add(-1)
			return j
		}
	}
	return nil
}

// popGrantableLocked removes and returns the first job in t's FIFO that
// can be granted now: parked jobs always; unstarted jobs only with a
// resident slot and heap headroom.
func (s *Sched) popGrantableLocked(t *tenantQ) *schedJob {
	for i, j := range t.jobs {
		if !j.started {
			if s.resident >= s.cfg.MaxResident {
				continue
			}
			if s.heapReserved+j.reserve > s.cfg.HeapWatermark {
				continue
			}
		}
		t.jobs = append(t.jobs[:i], t.jobs[i+1:]...)
		return j
	}
	return nil
}

// yield is the governor callback for job j, called from the VM every
// QuantumSteps bytecodes. The uncontended fast path — no waiters — is
// one heartbeat store and one atomic load. Otherwise the job is
// preempted: slot released, job re-queued at the back of its tenant
// FIFO, goroutine parked until the next grant. Returns the parked
// duration for the governor's deadline credit.
func (s *Sched) yield(j *schedJob) time.Duration {
	now := time.Now()
	j.lastBeat.Store(now.UnixNano())
	if s.waiting.Load() == 0 {
		return 0
	}
	s.mu.Lock()
	if j.abandoned {
		s.mu.Unlock()
		// The wedge verdict was already delivered; unwind the zombie run
		// as an in-language error. The result is discarded by finish.
		interp.Raise("TimeoutError", "job abandoned by scheduler after wedge verdict")
	}
	if s.closed || s.waiting.Load() == 0 {
		s.mu.Unlock()
		return 0
	}
	j.preemptions++
	s.stats.Preempted++
	j.note(s, LifePreempted, now)
	delete(s.activeRunning, j)
	s.running--
	s.enqueueLocked(j)
	s.grantLocked()
	s.mu.Unlock()

	<-j.grant

	s.mu.Lock()
	resumed := time.Now()
	j.note(s, LifeRunning, resumed)
	s.mu.Unlock()
	return resumed.Sub(now)
}

// run is the job's executor goroutine, spawned at first grant. It owns
// the job's Runner across preemptions (parking blocks right here, inside
// the VM's dispatch loop) and sends exactly one reply unless a wedge
// verdict beat it to it.
func (s *Sched) run(j *schedJob) {
	// Injected scheduler fault: wedge — stall the first slice past the
	// wedge horizon. The submitter gets a ClassWedged verdict from the
	// scan; this goroutine finds itself abandoned when it wakes.
	if s.fireFault(faults.WorkerWedge) {
		time.Sleep(j.watchdog + s.cfg.WedgeSlack)
	}
	res := s.execute(j)
	s.finish(j, res)
}

// fireFault consults the scheduler-layer injector under the mutex.
func (s *Sched) fireFault(k faults.Kind) bool {
	if s.cfg.Faults == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.Faults.Should(k)
}

// execute runs j on a warm Runner with the yield hook armed.
func (s *Sched) execute(j *schedJob) *JobResult {
	start := time.Now()
	jr := &JobResult{Mode: j.job.Mode, Worker: -1}
	sr, err := s.takeRunner(j.job.Mode, j.job.Breakdown)
	if err != nil {
		jr.Class = ClassError
		jr.Err = err.Error()
		return jr
	}
	j.sr = sr
	r := sr.r
	r.SetLimits(j.limits)
	r.SetYield(s.cfg.QuantumSteps, func() time.Duration { return s.yield(j) })
	// Warm-start plumbing: arm the job's seed (nil disarms the previous
	// job's, which would otherwise bind to this program) and the export
	// opt-in.
	r.SetICSeed(j.job.ICSeed)
	r.SetCollectICSeed(j.job.CollectICSeed)

	code := j.job.Code
	if code == nil {
		code, err = pycompile.CompileSource(j.job.Name, j.job.Src)
		if err != nil {
			jr.Class = ClassError
			jr.Err = err.Error()
			jr.RunTime = time.Since(start)
			return jr
		}
	}

	s.mu.Lock()
	j.note(s, LifeRunning, time.Now())
	s.mu.Unlock()

	res, err := r.RunCode(code)
	jr.Class = Classify(err)
	if err != nil {
		jr.Err = err.Error()
		return jr
	}
	jr.Output = res.Output
	jr.Bytecodes = res.VM.Bytecodes
	jr.Allocs = res.Heap.Allocations
	jr.MinorGCs = res.Heap.MinorGCs
	jr.MajorGCs = res.Heap.MajorGCs
	if res.JIT != nil {
		jr.ErrorDeopts = res.JIT.ErrorDeopts
	}
	jr.IC = res.VM.IC
	jr.ICSeed = res.ICSeed
	if j.job.Breakdown {
		bd := res.Breakdown
		jr.Breakdown = &bd
	}
	jr.health = healthProbe(res)
	return jr
}

// finish closes out a job: release the slot, deliver the reply (unless a
// wedge verdict already did), police the Runner's health off the reply
// path, and hand the slot to the next job.
func (s *Sched) finish(j *schedJob, res *JobResult) {
	now := time.Now()
	s.mu.Lock()
	abandoned := j.abandoned
	j.done = true
	if !abandoned {
		j.note(s, LifeFinished, now)
		delete(s.activeRunning, j)
		s.running--
		s.stats.Completed++
	}
	// The VM is done either way: release residency and let the next
	// unstarted job in.
	s.resident--
	s.heapReserved -= j.reserve
	s.grantLocked()
	s.cond.Broadcast()
	s.mu.Unlock()

	if !abandoned {
		res.Queued = j.firstGrant.Sub(j.submitAt)
		res.RunTime = time.Duration(j.runNanos)
		res.Preemptions = j.preemptions
		res.Lifecycle = j.events
		j.reply <- res
	}

	// Live attribution accounting and Runner disposition, off every
	// job's latency path. An abandoned job's Runner is untrusted by
	// construction (it was wedged).
	if !abandoned {
		s.cfg.Metrics.observeBreakdown(res.Breakdown)
	}
	sr := j.sr
	if sr == nil {
		return
	}
	sr.jobs++
	switch {
	case abandoned, res.Class == ClassInternal, res.health != "":
		s.dropRunner(evPoisoned)
		return
	case res.Class != ClassOK:
		if bad := canaryRunner(sr.r); bad != "" {
			s.dropRunner(evPoisoned)
			return
		}
	}
	if sr.jobs >= s.cfg.RecycleAfter {
		s.dropRunner(evRecycled)
		return
	}
	sr.r.SetYield(0, nil)
	sr.r.Reset()
	s.putRunner(j.job.Mode, j.job.Breakdown, sr)
}

// dropRunner records a Runner retirement (poison or recycle); the Runner
// itself is simply garbage.
func (s *Sched) dropRunner(ev int) {
	s.mu.Lock()
	if ev == evPoisoned {
		s.stats.Poisoned++
	} else {
		s.stats.Recycled++
	}
	s.mu.Unlock()
	s.cfg.Metrics.event(ev)
}

// healthProbe audits a completed run's heap statistics: refcount balance
// and free/allocation accounting. A Runner whose bookkeeping went bad is
// dropped even when the job's output looked fine.
func healthProbe(res *runtime.Result) string {
	h := res.Heap
	if h.BadDecrefs != 0 {
		return fmt.Sprintf("%d decrefs hit an object with RC <= 0", h.BadDecrefs)
	}
	if h.Decrefs > h.Increfs+h.Allocations {
		return fmt.Sprintf("refcount imbalance: %d decrefs > %d increfs + %d allocations",
			h.Decrefs, h.Increfs, h.Allocations)
	}
	if h.Frees > h.Allocations+h.PayloadAllocs {
		return fmt.Sprintf("free accounting: %d frees > %d allocations + %d payload allocs",
			h.Frees, h.Allocations, h.PayloadAllocs)
	}
	if h.MajorGCs > h.MinorGCs {
		return fmt.Sprintf("gc accounting: %d major GCs > %d minor GCs", h.MajorGCs, h.MinorGCs)
	}
	return ""
}

// canarySrc is the health probe run after a job errors: a Runner that
// cannot produce "42" from pristine state is dropped.
const canarySrc = "print(6 * 7)\n"

// canaryRunner reruns the canary program from pristine state on a Runner
// whose last job errored (an aborted run yields no statistics to probe).
func canaryRunner(r *runtime.Runner) string {
	r.SetYield(0, nil)
	r.SetLimits(interp.Limits{MaxSteps: 100_000, Deadline: 5 * time.Second})
	r.SetICSeed(nil)
	r.SetCollectICSeed(false)
	res, err := r.Run("canary.py", canarySrc)
	if err != nil {
		return "canary failed: " + err.Error()
	}
	if res.Output != "42\n" {
		return "canary output " + res.Output
	}
	if bad := healthProbe(res); bad != "" {
		return "canary " + bad
	}
	return ""
}

// takeRunner pops a warm Runner from the free list or builds one.
func (s *Sched) takeRunner(mode runtime.Mode, attributed bool) (*schedRunner, error) {
	ai := 0
	if attributed {
		ai = 1
	}
	s.mu.Lock()
	if l := s.free[mode][ai]; len(l) > 0 {
		sr := l[len(l)-1]
		s.free[mode][ai] = l[:len(l)-1]
		s.mu.Unlock()
		return sr, nil
	}
	s.mu.Unlock()
	cfg := runtime.ServingConfig(mode)
	if attributed {
		cfg = runtime.AttributedServingConfig(mode)
	}
	r, err := runtime.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return &schedRunner{r: r}, nil
}

// putRunner returns a reset Runner to the free list, bounded by
// MaxResident (more warm VMs than can ever be resident is waste).
func (s *Sched) putRunner(mode runtime.Mode, attributed bool, sr *schedRunner) {
	ai := 0
	if attributed {
		ai = 1
	}
	s.mu.Lock()
	if s.closed || len(s.free[mode][ai]) >= s.cfg.MaxResident {
		s.mu.Unlock()
		return
	}
	s.free[mode][ai] = append(s.free[mode][ai], sr)
	s.mu.Unlock()
}

// maintain is the wedge scan: a granted job that has neither yielded nor
// finished within its watchdog is declared wedged — the submitter gets
// its verdict now, the slot is freed, and the zombie goroutine's
// eventual result is discarded (its Runner dropped).
func (s *Sched) maintain() {
	defer close(s.maintDone)
	tick := time.NewTicker(s.cfg.MaintInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.maintStop:
			return
		case <-tick.C:
		}
		now := time.Now()
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		for j := range s.activeRunning {
			if j.done || j.abandoned {
				continue
			}
			beat := time.Unix(0, j.lastBeat.Load())
			if now.Sub(beat) <= j.watchdog {
				continue
			}
			j.abandoned = true
			delete(s.activeRunning, j)
			s.running--
			s.stats.Wedged++
			s.cfg.Metrics.event(evWedged)
			j.note(s, LifeFinished, now)
			res := &JobResult{
				Class:       ClassWedged,
				Err:         "wedged: no yield within " + j.watchdog.String(),
				Mode:        j.job.Mode,
				Worker:      -1,
				Queued:      j.firstGrant.Sub(j.submitAt),
				RunTime:     j.watchdog,
				Preemptions: j.preemptions,
				Lifecycle:   j.events,
			}
			j.reply <- res
			s.grantLocked()
			s.cond.Broadcast()
		}
		s.mu.Unlock()
	}
}

// drainFlushLocked sheds every queued unstarted job (started parked jobs
// are in-flight: they keep their VMs and run to completion).
func (s *Sched) drainFlushLocked(why string) {
	for _, ls := range s.lanes {
		for name, t := range ls.tenants {
			kept := t.jobs[:0]
			for _, j := range t.jobs {
				if j.started {
					kept = append(kept, j)
					continue
				}
				s.waiting.Add(-1)
				res := s.shedLocked(j.job, why)
				res.Queued = time.Since(j.submitAt)
				j.reply <- res
			}
			t.jobs = kept
			if len(t.jobs) == 0 {
				for i, rt := range ls.ring {
					if rt == t {
						ls.ring = append(ls.ring[:i], ls.ring[i+1:]...)
						if ls.cursor > i {
							ls.cursor--
						}
						break
					}
				}
				delete(ls.tenants, name)
			}
		}
	}
}

// Drain stops admission, sheds queued unstarted jobs, and waits (up to
// timeout) for in-flight jobs to finish.
func (s *Sched) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	wake := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer wake.Stop()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	s.drainFlushLocked("scheduler is draining")
	for {
		if s.inflight == 0 {
			return true
		}
		if !time.Now().Before(deadline) {
			return false
		}
		s.cond.Wait()
	}
}

// Close tears the scheduler down: sheds queued unstarted jobs, releases
// every parked job to run to completion (their submitters still get
// replies), and stops the wedge scan. Idempotent.
func (s *Sched) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.drainFlushLocked("scheduler closed")
	// Release all parked jobs, ignoring the slot cap: nothing may stay
	// parked forever once the grant machinery stops.
	for _, ls := range s.lanes {
		for name, t := range ls.tenants {
			for _, j := range t.jobs {
				s.waiting.Add(-1)
				s.running++
				j.note(s, LifeScheduled, time.Now())
				s.activeRunning[j] = struct{}{}
				j.grant <- struct{}{}
			}
			t.jobs = nil
			delete(ls.tenants, name)
		}
		ls.ring = nil
		ls.cursor = 0
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	close(s.maintStop)
	<-s.maintDone
}

// Stats returns a snapshot of the counters and current occupancy:
// Workers is the slot count, Idle the free slots, Queued the jobs
// waiting for a grant.
func (s *Sched) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Workers = s.cfg.Slots
	st.Idle = s.cfg.Slots - s.running
	if st.Idle < 0 {
		st.Idle = 0
	}
	st.Queued = int(s.waiting.Load())
	st.Resident = s.resident
	st.HeapReserved = s.heapReserved
	st.HeapWatermark = s.cfg.HeapWatermark
	st.Draining = s.draining
	return st
}

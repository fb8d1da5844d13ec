package parallel

import (
	"sync"
	"sync/atomic"
	"time"

	"csrgraph/internal/obs"
)

// Pool is a persistent set of worker goroutines that executes parallel-for
// jobs without a goroutine spawn or WaitGroup teardown per call. Workers park on a channel receive between jobs, so an idle
// pool costs nothing but p blocked goroutines.
//
// Scheduling is caller-participates: For enqueues a job descriptor (a body,
// a chunk list, and an atomic chunk cursor), wakes up to len(chunks)-1
// workers with non-blocking sends, and then claims chunks itself alongside
// them until none remain. Because the caller drains every unclaimed chunk
// before waiting, it only ever waits on chunks actively executing in
// workers — never on queued work — which makes nested Pool.For calls from
// inside a body deadlock-free by induction: a nested caller likewise runs
// its own job to completion. If the wake queue is full the caller simply
// does more of the work itself; parallelism degrades, correctness does not.
type Pool struct {
	p       int
	jobs    chan runnable
	closing sync.Once
}

// runnable is one enqueued parallel-for job; both the static-chunk job and
// the dynamic work-stealing dynJob satisfy it. wid identifies the executing
// participant for the per-worker obs stripes: pool workers pass their index,
// submitting callers pass the dedicated caller stripe.
type runnable interface{ run(wid int) }

// job is one parallel-for invocation: every participant (workers plus the
// submitting caller) loops claiming chunks via next; the participant that
// finishes the last chunk closes fin.
type job struct {
	body   func(chunk int, r Range)
	chunks []Range
	next   atomic.Int64
	done   atomic.Int64
	fin    chan struct{}
}

//csr:hotpath
func (j *job) run(wid int) {
	n := int64(len(j.chunks))
	// Tallies are recorded per chunk, before the done.Add that may close
	// fin: every chunk's counters therefore happen-before the job is
	// observed complete, so a scrape right after For returns sees exact
	// totals. Cost when metrics are on is two clock reads and two striped
	// adds per chunk — chunks are coarse; when off, one Enabled load.
	timed := obs.Enabled()
	for {
		c := j.next.Add(1) - 1
		if c >= n {
			return
		}
		if timed {
			t0 := time.Now()
			j.body(int(c), j.chunks[c])
			poolBusyNS.Add(wid, time.Since(t0).Nanoseconds())
			poolChunks.Add(wid, 1)
		} else {
			j.body(int(c), j.chunks[c])
		}
		if j.done.Add(1) == n {
			close(j.fin)
		}
	}
}

// dynJob is one dynamic (work-stealing) parallel-for invocation: instead of
// a precomputed chunk list, participants repeatedly grab the next
// grain-sized index range off a shared atomic cursor, so a participant that
// draws a heavy range (a hub node's queries) simply claims fewer ranges
// while its siblings drain the rest. ids hands each participant a dense
// worker index for per-worker scratch state.
type dynJob struct {
	body   func(worker int, r Range)
	n      int64
	grain  int64
	cursor atomic.Int64
	done   atomic.Int64
	ids    atomic.Int64
	fin    chan struct{}
}

//csr:hotpath
func (j *dynJob) run(wid int) {
	id := int(j.ids.Add(1) - 1)
	// Same per-claim recording discipline as job.run: counters land before
	// the done.Add that may close fin, so totals are exact the moment
	// ForDynamic returns.
	timed := obs.Enabled()
	for {
		start := j.cursor.Add(j.grain) - j.grain
		if start >= j.n {
			return
		}
		end := start + j.grain
		if end > j.n {
			end = j.n
		}
		if timed {
			t0 := time.Now()
			j.body(id, Range{int(start), int(end)})
			poolBusyNS.Add(wid, time.Since(t0).Nanoseconds())
			poolGrabs.Add(wid, 1)
		} else {
			j.body(id, Range{int(start), int(end)})
		}
		if j.done.Add(end-start) == j.n {
			close(j.fin)
			return
		}
	}
}

// NewPool starts a pool of p workers; p <= 0 is treated as 1.
func NewPool(p int) *Pool {
	if p <= 0 {
		p = 1
	}
	pl := &Pool{p: p, jobs: make(chan runnable, 4*p)}
	for i := 0; i < p; i++ {
		go pl.worker(i)
	}
	return pl
}

//csr:hotpath
func (pl *Pool) worker(id int) {
	for {
		// Time spent parked between jobs is the pool's idle series; the
		// clock is read only while metrics are enabled, and a toggle while
		// parked just drops that interval.
		var t0 time.Time
		if obs.Enabled() {
			t0 = time.Now()
		}
		j, ok := <-pl.jobs
		if !ok {
			return
		}
		if !t0.IsZero() {
			poolIdleNS.Add(id, time.Since(t0).Nanoseconds())
		}
		j.run(id)
	}
}

// Size returns the number of workers.
func (pl *Pool) Size() int { return pl.p }

// For runs body over [0, n) split into at most p chunks with the same
// (chunk, Range) contract as the package-level For. With one chunk (p == 1
// or n <= 1) it runs inline on the calling goroutine with no allocation or
// synchronization.
func (pl *Pool) For(n, p int, body func(chunk int, r Range)) {
	chunks := Chunks(n, p)
	if len(chunks) <= 1 {
		for c, r := range chunks {
			body(c, r)
		}
		return
	}
	poolJobs.Inc()
	j := &job{body: body, chunks: chunks, fin: make(chan struct{})}
	// Wake at most len(chunks)-1 workers: the caller is the remaining
	// participant. Sends are non-blocking; a full queue just means the
	// caller claims a larger share below. Workers that dequeue j after all
	// chunks are claimed see an exhausted cursor and return immediately.
wake:
	for i := 1; i < len(chunks); i++ {
		select {
		case pl.jobs <- j:
		default:
			break wake
		}
	}
	j.run(callerStripe)
	<-j.fin
}

// ForDynamic runs body over [0, n) with work-stealing scheduling: up to p
// participants (woken workers plus the submitting caller) repeatedly claim
// the next grain-sized index range off an atomic cursor until the space is
// exhausted. Unlike For's static split into p equal chunks, a participant
// that lands on expensive indices — a hub node's row in a batched query —
// claims fewer ranges while the others drain the rest, so skewed per-index
// cost no longer stretches the whole call to the slowest chunk.
//
// body receives a dense worker index in [0, p) stable across that
// participant's grabs, for per-worker scratch (decode buffers); it does NOT
// identify a chunk. grain <= 0 picks a default of ~8 grabs per participant.
// The same caller-participates discipline as For applies, so nested calls
// remain deadlock-free and a full wake queue only shifts work to the
// caller.
func (pl *Pool) ForDynamic(n, p, grain int, body func(worker int, r Range)) {
	if n <= 0 {
		return
	}
	if p <= 0 {
		p = 1
	}
	if grain <= 0 {
		grain = n / (8 * p)
		if grain < 1 {
			grain = 1
		}
	}
	if p == 1 || n <= grain {
		body(0, Range{0, n})
		return
	}
	poolDynJobs.Inc()
	j := &dynJob{body: body, n: int64(n), grain: int64(grain), fin: make(chan struct{})}
	// Wake one fewer participant than there are grains to claim (capped at
	// p-1): the caller is the last participant, and every send is
	// non-blocking so a full queue degrades to the caller doing more.
	parts := (n + grain - 1) / grain
	if parts > p {
		parts = p
	}
wake:
	for i := 1; i < parts; i++ {
		select {
		case pl.jobs <- j:
		default:
			break wake
		}
	}
	j.run(callerStripe)
	<-j.fin
}

// Close parks no new work and lets the workers exit. Jobs already enqueued
// still complete (their callers also execute them). Close is idempotent;
// For on a closed pool panics like any send on a closed channel, so only
// close pools that have quiesced — the package-level shared pool is never
// closed.
func (pl *Pool) Close() {
	pl.closing.Do(func() { close(pl.jobs) })
}

var (
	sharedPoolOnce sync.Once
	sharedPool     *Pool
)

// defaultPool lazily starts the package-level pool the exported For/ForEach
// helpers dispatch through, sized to GOMAXPROCS. Lazy so that programs that
// only ever run with p == 1 never spawn a worker.
func defaultPool() *Pool {
	sharedPoolOnce.Do(func() { sharedPool = NewPool(DefaultProcs()) })
	return sharedPool
}

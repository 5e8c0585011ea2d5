package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// counters are the layers' own public counters (Stats()/registries).
// They are read when the first window starts and after the last one
// ends; the per-layer *counter* metrics are ratios of the differences.
type counters struct {
	invokes, commits, aborts, fallbacks, readonly int64 // runtime
	hits, misses, flushes, flushDocs              int64 // memtable
	kvWrites, kvDocs, kvReads                     int64 // kvstore
	asyncDone, coalesced, rejected                int64 // asyncq
	appended                                      int64 // eventlog
	dropped, retried                              int64 // trigger
	traceKept, traceDropped                       int64 // trace
}

func (w *workload) readCounters() counters {
	p := w.rig.p
	var c counters
	for _, class := range p.Classes() {
		rt, err := p.Runtime(class)
		if err != nil {
			continue
		}
		cs, ts := rt.ConcurrencyStats(), rt.Table().Stats()
		c.invokes += rt.Metrics().Counter("invoke.total").Value()
		c.commits += cs.Commits
		c.aborts += cs.Aborts
		c.fallbacks += cs.Fallbacks
		c.readonly += cs.Readonly
		c.hits += ts.Hits
		c.misses += ts.Misses
		c.flushes += ts.Flushes
		c.flushDocs += ts.FlushDocs
	}
	kv, aq, tg, tr := p.Backing().Stats(), p.AsyncQueue().Stats(), p.TriggerBus().Stats(), p.Tracer().Stats()
	c.kvWrites, c.kvDocs, c.kvReads = kv.WriteOps, kv.DocsWritten, kv.ReadOps
	c.asyncDone, c.coalesced, c.rejected = aq.Completed, aq.Coalesced, aq.Rejected+aq.QuotaRejected
	c.appended = p.EventLog().Stats().Appended
	c.dropped, c.retried = tg.Dropped, tg.Retried
	c.traceKept, c.traceDropped = tr.Kept, tr.Dropped
	return c
}

// window is what one measurement window yields: raw counts and times,
// and the host's speed while it ran.
type window struct {
	ops       int64 // completed and verified
	attempted int64
	failed    int64 // failed + refused + unverified + undelivered
	elapsed   time.Duration
	cpu       time.Duration // process user+sys
	mallocs   uint64
	lat       hist
	speed     float64 // host speed around the window, relative to the reference host
}

// windowRow is a window as stored in the results file: the raw values
// the issue defines (real operations per real second, real
// microseconds) beside the host speed they were taken at.
type windowRow struct {
	OpsPerS     float64 `json:"throughput_ops_s"`
	P50Us       float64 `json:"latency_p50_us"`
	P90Us       float64 `json:"latency_p90_us"`
	CPUUsPerOp  float64 `json:"cpu_us_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	HostSpeed   float64 `json:"host_speed"`
}

func (w window) row() windowRow {
	ops := float64(max(w.ops, 1))
	return windowRow{
		OpsPerS: float64(w.ops) / w.elapsed.Seconds(),
		P50Us:   us(w.lat.quantile(0.5)), P90Us: us(w.lat.quantile(0.9)),
		CPUUsPerOp: float64(w.cpu.Microseconds()) / ops, AllocsPerOp: float64(w.mallocs) / ops,
		HostSpeed: w.speed,
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeapMB forces two collections (the second frees what the first
// one's finalizers released) and returns HeapAlloc.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// session is one workload being measured: its platform, its open
// clients, and what the windows have yielded so far.
type session struct {
	w         *workload
	clients   []*client
	setups    []float64 // seconds at reference host speed, one per set-up
	rawSetups []float64 // the same in real seconds
	heapMB    float64
	windows   []window
	all       hist               // every window's latencies, for the diagnostic tails
	lag       hist               // event_chain: Event.Time → receipt, since last reset
	before    counters           // the layers' counters when the first window started
	layers    map[string]float64 // per-layer metrics, filled by the traced pass
	spans     []span             // the traced pass's spans
	stages    []stageRow
	failures  []error
}

// drive runs step on every client until stop reports true, then waits
// for operations that complete out of band. It returns how many never
// completed.
func (s *session) drive(clients []*client, stop func(c *client) bool) int64 {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop(c) && !c.dead {
				s.w.step(s.w, c)
			}
		}()
	}
	wg.Wait()
	return s.w.drain(clients)
}

// open dials the session's clients for one phase.
func (s *session) open(phase string, n int) ([]*client, error) {
	clients := make([]*client, 0, n)
	for i := range n {
		c, err := s.w.newClient(phase, i, n)
		if err != nil {
			closeClients(clients)
			return nil, err
		}
		clients = append(clients, c)
	}
	return clients, nil
}

func closeClients(clients []*client) {
	for _, c := range clients {
		c.conn.close()
	}
}

// collect sums and clears the clients' tallies (and the event plane's,
// whose completions arrive at the receiver rather than the client).
func (s *session) collect(clients []*client, undelivered int64) (win window) {
	for _, c := range clients {
		win.attempted += c.attempted
		win.failed += c.failed
		win.ops += c.completed
		win.lat.merge(&c.lat)
		c.attempted, c.failed, c.completed = 0, 0, 0
		c.lat.reset()
	}
	win.failed += undelivered
	if ev := s.w.ev; ev != nil {
		done, lat, lag := ev.take()
		win.ops += done
		win.lat.merge(&lat)
		s.lag.merge(&lag)
	}
	return win
}

// warmup runs a fixed number of operations, unmeasured, so caches fill
// and lazy set-up finishes; then records the live heap. The count is
// fixed (not a duration) so that a faster build, which would complete
// more operations in the same time, is not charged for the records
// they leave behind.
func (s *session) warmup(heapBefore float64) error {
	clients, err := s.open("warmup", len(s.clients))
	if err != nil {
		return err
	}
	defer closeClients(clients)
	per := int64(s.w.sz.warmupOps / len(clients))
	arm(clients, time.Minute)
	undelivered := s.drive(clients, func(c *client) bool { return c.attempted >= per })
	win := s.collect(clients, undelivered)
	if win.failed != 0 {
		return fmt.Errorf("%s: %d of %d warm-up operations failed", s.w.name, win.failed, win.attempted)
	}
	s.heapMB = liveHeapMB() - heapBefore
	return nil
}

func arm(clients []*client, d time.Duration) {
	t := time.Now().Add(d)
	for _, c := range clients {
		c.conn.arm(t)
	}
}

// Reference host speed: the spin rate per proc (iterations per ns) and
// the no-op HTTP rate per connection (requests per second) of the
// 2-vCPU box the benchmark was sized on, in a quiet minute. A host that
// probes at exactly these rates has speed 1; gated times and rates are
// what the run would have measured on that host.
const (
	spinRef  = 0.85
	floorRef = 45000
)

// hostProbe measures how fast the host is right now. The shared 2-vCPU
// box the benchmark was sized on changes speed in steps that last
// seconds (a fixed single-threaded loop ran at 0.53, 0.68, 0.78 and
// 1.18 iterations/ns within one minute), and every time-based metric
// follows: ten runs of one workload spread by 15–40 % raw. The probe is
// two fixed pieces of work that touch no platform code — a CPU spin on
// every proc (user-space compute) and a no-op HTTP route on a listener
// of the probe's own, driven over its own connections (kernel TCP,
// scheduler, net/http) — and the speed is the geometric mean of their
// rates relative to the reference rates.
//
// It runs only between windows, on a platform brought to rest by
// settle, so the platform's work does not slow it: what a product
// change costs inside the windows cannot leak into the factor the
// windows are divided by (README.md shows the factor holding still
// under a deliberate product slowdown).
type hostProbe struct {
	srv    *http.Server
	conns  []*conn
	length time.Duration // of one probe: half spin, half HTTP
}

func newHostProbe(conns int, length time.Duration) (*hostProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("host probe listener: %w", err)
	}
	p := &hostProbe{length: length, srv: &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusNoContent) }),
	}}
	go func() { _ = p.srv.Serve(ln) }()
	for range conns {
		c, err := dial(ln.Addr().String())
		if err != nil {
			p.close()
			return nil, err
		}
		p.conns = append(p.conns, c)
	}
	return p, nil
}

func (p *hostProbe) close() {
	for _, c := range p.conns {
		c.close()
	}
	_ = p.srv.Close()
}

// speed takes one probe.
func (p *hostProbe) speed() (float64, error) {
	var wg sync.WaitGroup
	procs := runtime.GOMAXPROCS(0)
	counts := make([]int64, max(procs, len(p.conns)))
	errs := make([]error, len(p.conns))
	// rate runs body on n goroutines for half the probe and returns
	// iterations per goroutine per nanosecond.
	rate := func(n int, body func(i int, deadline time.Time)) float64 {
		clear(counts)
		t0 := time.Now()
		for i := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body(i, t0.Add(p.length/2))
			}()
		}
		wg.Wait()
		var total int64
		for _, c := range counts {
			total += c
		}
		return float64(total) / float64(n) / float64(time.Since(t0))
	}
	spin := rate(procs, func(i int, deadline time.Time) {
		r := rng{s: uint64(i) + 1}
		var acc uint64
		for time.Now().Before(deadline) {
			for range 1 << 14 {
				acc ^= r.next()
			}
			counts[i] += 1 << 14
		}
		spinSink.Add(acc)
	})
	floor := 1e9 * rate(len(p.conns), func(i int, deadline time.Time) {
		p.conns[i].arm(deadline.Add(5 * time.Second))
		for time.Now().Before(deadline) {
			if _, _, errs[i] = p.conns[i].do("GET", "/", "", nil); errs[i] != nil {
				return
			}
			counts[i]++
		}
	})
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("host probe: %w", err)
		}
	}
	return math.Sqrt(spin / spinRef * floor / floorRef), nil
}

// settle brings the platform to rest, so that the host probe that
// follows competes with none of its work: write-behind tables flushed,
// the async queue (the audit chain of event_chain) empty, and whatever
// collection the window left running finished — after a forced
// collection the probe's own few megabytes of garbage cannot start
// another, whatever the platform's heap holds.
func (w *workload) settle() {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	p := w.rig.p
	p.Flush(ctx)
	for ctx.Err() == nil {
		if st := p.AsyncQueue().Stats(); st.Depth == 0 && st.InFlight == 0 {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	runtime.GC()
}

// measure runs one window and appends its result. before is the host
// speed probed just ahead of it; the probe taken once the window has
// ended and the platform has settled is returned, and serves as the
// next window's before. The window's budget d covers that probe.
func (s *session) measure(d time.Duration, before float64, probe *hostProbe) (after float64, err error) {
	arm(s.clients, d+2*drainTimeout)
	if len(s.windows) == 0 {
		s.before = s.w.readCounters()
	}
	cpu0, m0, t0 := processCPU(), mallocs(), time.Now()
	deadline := t0.Add(max(d-probe.length, d/2))
	undelivered := s.drive(s.clients, func(*client) bool { return !time.Now().Before(deadline) })
	elapsed := time.Since(t0)
	win := s.collect(s.clients, undelivered)
	win.elapsed, win.cpu, win.mallocs = elapsed, processCPU()-cpu0, mallocs()-m0
	s.w.settle()
	if after, err = probe.speed(); err != nil {
		return 0, err
	}
	win.speed = (before + after) / 2
	s.all.merge(&win.lat)
	s.windows = append(s.windows, win)
	return after, nil
}

package cluster

// Lease-based membership and epoch-fenced object ownership.
//
// Each node holds a lease document in the backing kvstore
// (cluster/lease/<node>) renewed by a jittered heartbeat goroutine.
// Objects are assigned an owning node by rendezvous (highest-random-
// weight) hash over the live member set, so placement needs no central
// table and moves minimally when membership changes. Every rebalance
// bumps a monotone ownership epoch (persisted at cluster/epoch);
// commits admitted under an older epoch are fenced — rejected unless
// the object's owner is provably unchanged — so a partitioned or
// paused ex-owner can never double-commit against the new owner.
//
// The lease and epoch documents are json.Marshal output written once
// and never touched again: the store keeps the slice it is handed
// (kvstore's ownership rule).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcclab/oparaca-go/internal/kvstore"
	"github.com/hpcclab/oparaca-go/internal/metrics"
	"github.com/hpcclab/oparaca-go/internal/vclock"
)

// Ownership sentinels.
var (
	// ErrOwnershipMoved is returned by the epoch fence when a commit
	// was admitted under an ownership assignment that no longer holds.
	// The invocation must be retried (sync) or requeued (async) — it
	// has not been acknowledged and nothing was persisted.
	ErrOwnershipMoved = errors.New("cluster: ownership moved (epoch fence)")
	// ErrOwnershipMoving is returned while a rebalance transition
	// window is open; callers should fast-fail with Retry-After rather
	// than pile onto a membership view that is still converging.
	ErrOwnershipMoving = errors.New("cluster: ownership transition in progress")
	// ErrNotMember is returned when joining a duplicate node or
	// operating on a node that never joined.
	ErrNotMember = errors.New("cluster: node is not a member")
)

// TransitionError wraps ErrOwnershipMoving with the time remaining in
// the transition window, mirroring resilience.OpenError so the gateway
// can surface a Retry-After header.
type TransitionError struct {
	RetryAfter time.Duration
}

// Error implements error.
func (e *TransitionError) Error() string {
	return fmt.Sprintf("%v (retry after %s)", ErrOwnershipMoving, e.RetryAfter)
}

// Unwrap lets errors.Is(err, ErrOwnershipMoving) match.
func (e *TransitionError) Unwrap() error { return ErrOwnershipMoving }

const (
	leasePrefix = "cluster/lease/"
	epochKey    = "cluster/epoch"
)

// leaseDoc is the persisted lease record.
type leaseDoc struct {
	Node    string    `json:"node"`
	Expires time.Time `json:"expires"`
	Epoch   uint64    `json:"epoch"`
}

type epochDoc struct {
	Epoch uint64 `json:"epoch"`
}

// MembershipConfig configures a Membership.
type MembershipConfig struct {
	// Backing persists leases and the ownership epoch so they survive
	// the process. Required.
	Backing *kvstore.Store
	// Clock supplies time; defaults to the real clock.
	Clock vclock.Clock
	// LeaseTTL is how long a lease lives without renewal. Defaults to
	// 2s.
	LeaseTTL time.Duration
	// Heartbeat is the base renewal interval. Defaults to LeaseTTL/3.
	Heartbeat time.Duration
	// HeartbeatJitter spreads each renewal interval uniformly over
	// [Heartbeat*(1-j), Heartbeat*(1+j)] so simultaneous expiry storms
	// don't thundering-herd the backing store. Defaults to 0.2;
	// negative disables.
	HeartbeatJitter float64
	// JitterSeed seeds the jitter source (the chaos RNG plumbing);
	// zero seeds from 1.
	JitterSeed int64
	// TransitionWindow is how long after a rebalance the membership
	// reports ErrOwnershipMoving so routers fast-fail instead of
	// racing the handoff. Defaults to Heartbeat.
	TransitionWindow time.Duration
	// OnRebalance, when set, runs after each rebalance (epoch already
	// bumped) with the nodes that left and the new epoch. It is called
	// without internal locks held; implementations requeue orphaned
	// async work and replay trigger cursors.
	OnRebalance func(dead []string, epoch uint64)
}

func (c MembershipConfig) withDefaults() MembershipConfig {
	if c.Clock == nil {
		c.Clock = vclock.NewReal()
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 2 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = c.LeaseTTL / 3
	}
	if c.HeartbeatJitter == 0 {
		c.HeartbeatJitter = 0.2
	}
	if c.HeartbeatJitter < 0 {
		c.HeartbeatJitter = 0
	}
	if c.TransitionWindow <= 0 {
		c.TransitionWindow = c.Heartbeat
	}
	if c.JitterSeed == 0 {
		c.JitterSeed = 1
	}
	return c
}

// member is one locally heartbeated node.
type member struct {
	name   string
	joined time.Time
	stop   chan struct{}
	done   chan struct{}
}

// admitView is the immutable admission-path snapshot: the live member
// names, the current epoch, and the transition-window deadline. A new
// one is published atomically on every membership change, so the
// per-invoke read paths (Admit, Fence, CheckMoving, Owner, Epoch) are
// lock-free — three mutex acquisitions per routed invocation would
// otherwise serialize the whole invoke hot path on one global lock.
type admitView struct {
	names       []string
	epoch       uint64
	movingUntil time.Time
}

// Membership tracks live nodes via kvstore leases and assigns object
// ownership by rendezvous hash over the live set. It is safe for
// concurrent use.
type Membership struct {
	cfg MembershipConfig

	mu          sync.Mutex
	members     map[string]*member   // locally heartbeated
	live        map[string]time.Time // name → lease expiry (local + remote)
	epoch       uint64
	epochVer    int64 // kvstore version of the epoch doc, for CAS bumps
	movingUntil time.Time
	closed      bool

	rndMu sync.Mutex
	rnd   *rand.Rand

	// view caches the admission snapshot derived from live/epoch/
	// movingUntil; rebuilt by publishLocked whenever those change.
	view atomic.Pointer[admitView]

	// reg holds the cluster.* series; the counters are resolved once, so
	// Fence looks nothing up.
	reg                         *metrics.Registry
	rebalances, fenceRejections *metrics.Counter

	killCtx    context.Context
	killCancel context.CancelFunc
	wg         sync.WaitGroup
}

// NewMembership creates a membership layer over the backing store and
// starts the lease-expiry monitor. Callers Join nodes and must Close
// when done.
func NewMembership(cfg MembershipConfig) (*Membership, error) {
	if cfg.Backing == nil {
		return nil, errors.New("cluster: membership requires a backing store")
	}
	cfg = cfg.withDefaults()
	m := &Membership{
		cfg:     cfg,
		members: make(map[string]*member),
		live:    make(map[string]time.Time),
		rnd:     rand.New(rand.NewSource(cfg.JitterSeed)),
		reg:     metrics.NewRegistry(),
	}
	m.rebalances = m.reg.Counter("cluster.rebalances")
	m.fenceRejections = m.reg.Counter("cluster.fence_rejections")
	m.reg.GaugeFunc("cluster.epoch", func() float64 { return float64(m.Epoch()) })
	m.reg.GaugeFunc("cluster.moving", func() float64 {
		if m.CheckMoving() != nil {
			return 1
		}
		return 0
	})
	m.killCtx, m.killCancel = context.WithCancel(context.Background())
	// Adopt a persisted epoch (a successor process must fence at least
	// as high as its predecessor).
	if doc, err := cfg.Backing.Get(m.killCtx, epochKey); err == nil {
		var ed epochDoc
		if json.Unmarshal(doc.Value, &ed) == nil {
			m.epoch, m.epochVer = ed.Epoch, doc.Version
		}
	}
	// Adopt still-live leases left by a predecessor so stranded-work
	// recovery sees the old owners until they expire.
	if keys, err := cfg.Backing.List(m.killCtx, leasePrefix); err == nil && len(keys) > 0 {
		if docs, err := cfg.Backing.BatchGet(m.killCtx, keys); err == nil {
			now := cfg.Clock.Now()
			for _, doc := range docs {
				var ld leaseDoc
				if json.Unmarshal(doc.Value, &ld) == nil && ld.Node != "" && ld.Expires.After(now) {
					m.live[ld.Node] = ld.Expires
				}
			}
		}
	}
	m.publishLocked() // no concurrency yet; mu not required
	m.wg.Add(1)
	go m.monitor()
	return m, nil
}

// publishLocked rebuilds the lock-free admission snapshot from the
// authoritative (mutex-guarded) state. Call it with m.mu held after
// any change to the live set, epoch, or transition window.
func (m *Membership) publishLocked() {
	names := make([]string, 0, len(m.live))
	for name := range m.live {
		names = append(names, name)
	}
	m.view.Store(&admitView{names: names, epoch: m.epoch, movingUntil: m.movingUntil})
}

// jitteredInterval returns the next heartbeat delay.
func (m *Membership) jitteredInterval() time.Duration {
	j := m.cfg.HeartbeatJitter
	if j <= 0 {
		return m.cfg.Heartbeat
	}
	m.rndMu.Lock()
	f := 1 - j + 2*j*m.rnd.Float64()
	m.rndMu.Unlock()
	return time.Duration(float64(m.cfg.Heartbeat) * f)
}

// Join registers a node and starts its heartbeat. The first renewal is
// written synchronously so the node is immediately visible to a
// successor process.
func (m *Membership) Join(name string) error {
	if name == "" {
		return errors.New("cluster: empty member name")
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return errors.New("cluster: membership closed")
	}
	if _, ok := m.members[name]; ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNodeExists, name)
	}
	mem := &member{
		name:   name,
		joined: m.cfg.Clock.Now(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	m.members[name] = mem
	m.live[name] = m.cfg.Clock.Now().Add(m.cfg.LeaseTTL)
	m.publishLocked()
	m.mu.Unlock()
	m.renewLease(name) // best effort; heartbeat retries
	m.wg.Add(1)
	go m.heartbeat(mem)
	return nil
}

// renewLease writes the lease document. Failures are tolerated: the
// next heartbeat retries, and if the store stays down long enough the
// lease expires — which is the correct semantic for a node that cannot
// prove liveness.
func (m *Membership) renewLease(name string) {
	expires := m.cfg.Clock.Now().Add(m.cfg.LeaseTTL)
	m.mu.Lock()
	if _, ok := m.members[name]; !ok {
		m.mu.Unlock()
		return
	}
	m.live[name] = expires
	epoch := m.epoch
	m.mu.Unlock()
	raw, _ := json.Marshal(leaseDoc{Node: name, Expires: expires, Epoch: epoch})
	_, _ = m.cfg.Backing.Put(m.killCtx, leasePrefix+name, raw)
}

// heartbeat renews one node's lease at a jittered cadence until the
// node is killed, leaves, or the membership closes.
func (m *Membership) heartbeat(mem *member) {
	defer m.wg.Done()
	defer close(mem.done)
	for {
		d := m.jitteredInterval()
		select {
		case <-mem.stop:
			return
		case <-m.killCtx.Done():
			return
		case <-m.cfg.Clock.After(d):
		}
		m.renewLease(mem.name)
	}
}

// monitor watches for expired leases and rebalances when a member
// dies. It also adopts remote leases written by other processes.
func (m *Membership) monitor() {
	defer m.wg.Done()
	for {
		select {
		case <-m.killCtx.Done():
			return
		case <-m.cfg.Clock.After(m.cfg.Heartbeat):
		}
		m.sweep()
	}
}

// sweep folds the persisted lease set into the live view and expires
// the dead. Exposed to tests (and manual-clock drivers) via Converge.
func (m *Membership) sweep() {
	now := m.cfg.Clock.Now()
	// Merge remote leases (best effort — a store outage must not kill
	// liveness tracking for locally heartbeated members).
	if keys, err := m.cfg.Backing.List(m.killCtx, leasePrefix); err == nil && len(keys) > 0 {
		if docs, err := m.cfg.Backing.BatchGet(m.killCtx, keys); err == nil {
			m.mu.Lock()
			for _, doc := range docs {
				var ld leaseDoc
				if json.Unmarshal(doc.Value, &ld) != nil || ld.Node == "" {
					continue
				}
				if _, local := m.members[ld.Node]; local {
					continue // local expiry tracking is authoritative
				}
				if ld.Expires.After(now) {
					m.live[ld.Node] = ld.Expires
				}
			}
			m.publishLocked()
			m.mu.Unlock()
		}
	}
	var dead []string
	m.mu.Lock()
	for name, exp := range m.live {
		if !exp.After(now) {
			dead = append(dead, name)
		}
	}
	m.mu.Unlock()
	if len(dead) > 0 {
		sort.Strings(dead)
		m.rebalance(dead)
	}
}

// Converge runs one synchronous sweep, returning true once no
// transition window is open. The gateway's readiness probe uses it to
// report membership convergence without waiting for the next tick.
func (m *Membership) Converge() bool {
	m.sweep()
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.cfg.Clock.Now().Before(m.movingUntil)
}

// rebalance removes dead nodes from the live set, bumps the epoch,
// opens the transition window, and fires OnRebalance.
func (m *Membership) rebalance(dead []string) {
	m.mu.Lock()
	removed := dead[:0]
	for _, name := range dead {
		if _, ok := m.live[name]; !ok {
			continue // already handled by a concurrent sweep
		}
		delete(m.live, name)
		if mem, ok := m.members[name]; ok {
			// A locally heartbeated member whose lease lapsed (e.g.
			// Kill, or a store outage outlasting the TTL) stops
			// renewing; otherwise it would immediately resurrect.
			select {
			case <-mem.stop:
			default:
				close(mem.stop)
			}
			delete(m.members, name)
		}
		removed = append(removed, name)
	}
	if len(removed) == 0 {
		m.mu.Unlock()
		return
	}
	m.epoch++
	m.rebalances.Inc()
	m.movingUntil = m.cfg.Clock.Now().Add(m.cfg.TransitionWindow)
	m.publishLocked()
	epoch := m.epoch
	cb := m.cfg.OnRebalance
	m.mu.Unlock()

	m.persistEpoch(epoch)
	for _, name := range removed {
		_ = m.cfg.Backing.Delete(m.killCtx, leasePrefix+name)
	}
	if cb != nil {
		cb(removed, epoch)
	}
}

// persistEpoch CAS-writes the epoch doc, taking the max on conflict so
// concurrent processes only ratchet forward. Best effort: the
// in-memory epoch is authoritative for this process's fence even when
// the store is down.
func (m *Membership) persistEpoch(epoch uint64) {
	for attempt := 0; attempt < 3; attempt++ {
		m.mu.Lock()
		ver := m.epochVer
		m.mu.Unlock()
		raw, _ := json.Marshal(epochDoc{Epoch: epoch})
		doc, err := m.cfg.Backing.CompareAndPut(m.killCtx, epochKey, raw, ver)
		if err == nil {
			m.mu.Lock()
			m.epochVer = doc.Version
			m.mu.Unlock()
			return
		}
		if !errors.Is(err, kvstore.ErrVersionMismatch) {
			return
		}
		cur, gerr := m.cfg.Backing.Get(m.killCtx, epochKey)
		if gerr != nil {
			return
		}
		var ed epochDoc
		_ = json.Unmarshal(cur.Value, &ed)
		m.mu.Lock()
		m.epochVer = cur.Version
		if ed.Epoch > m.epoch {
			m.epoch = ed.Epoch
			m.publishLocked()
		}
		if ed.Epoch > epoch {
			epoch = ed.Epoch
		}
		m.mu.Unlock()
	}
}

// Leave drains a node explicitly: its lease is deleted and its objects
// reassigned immediately, without waiting for expiry.
func (m *Membership) Leave(name string) error {
	m.mu.Lock()
	mem, ok := m.members[name]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotMember, name)
	}
	select {
	case <-mem.stop:
	default:
		close(mem.stop)
	}
	<-mem.done
	m.rebalance([]string{name})
	return nil
}

// Kill simulates a node crash or partition: the heartbeat stops but
// the lease is left to expire naturally, so failover waits for the
// lease TTL exactly as it would for a real dead VM.
func (m *Membership) Kill(name string) error {
	m.mu.Lock()
	mem, ok := m.members[name]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotMember, name)
	}
	select {
	case <-mem.stop:
	default:
		close(mem.stop)
	}
	<-mem.done
	return nil
}

// Close stops all heartbeats and the monitor. Leases are left to
// expire so a successor process can recover stranded work from them.
func (m *Membership) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.killCancel()
	m.wg.Wait()
}

// fnv1a64 is an inline FNV-1a so the rendezvous score costs no
// allocations on the invoke hot path.
func fnv1a64(node, object string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(node); i++ {
		h ^= uint64(node[i])
		h *= prime
	}
	h ^= 0x1f // separator so ("ab","c") != ("a","bc")
	h *= prime
	for i := 0; i < len(object); i++ {
		h ^= uint64(object[i])
		h *= prime
	}
	// FNV's multiply-only diffusion pushes differences upward but not
	// back down, so trailing characters barely perturb the high bits a
	// rendezvous comparison keys on; finish with an avalanche mix
	// (splitmix64 finalizer) so sequential IDs spread evenly.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Owner returns the node owning objectID under the current live set by
// rendezvous hash (highest score wins; ties break by name so placement
// is deterministic). ok is false when no members are live.
func (m *Membership) Owner(objectID string) (owner string, ok bool) {
	return ownerOf(m.view.Load().names, objectID)
}

// ownerOf runs the rendezvous election over a published name set.
func ownerOf(names []string, objectID string) (string, bool) {
	var best string
	var bestScore uint64
	for _, name := range names {
		s := fnv1a64(name, objectID)
		if best == "" || s > bestScore || (s == bestScore && name < best) {
			best, bestScore = name, s
		}
	}
	return best, best != ""
}

// Admit returns the ownership stamp — current owner and epoch — a
// commit must carry through to the fence. ok is false when no members
// are live (ownership disabled in practice). Lock-free: owner and
// epoch come from one immutable snapshot, so the stamp is internally
// consistent even against a concurrent rebalance.
func (m *Membership) Admit(objectID string) (owner string, epoch uint64, ok bool) {
	v := m.view.Load()
	owner, ok = ownerOf(v.names, objectID)
	return owner, v.epoch, ok
}

// Fence validates a commit admitted under (owner, epoch). Same epoch →
// ownership cannot have moved. Newer epoch → the commit is allowed
// only if this object's owner is provably unchanged; otherwise the
// ex-owner is fenced off with ErrOwnershipMoved and the rejection
// counted.
func (m *Membership) Fence(objectID, owner string, epoch uint64) error {
	v := m.view.Load()
	if v.epoch == epoch {
		return nil
	}
	nowOwner, ok := ownerOf(v.names, objectID)
	if ok && nowOwner == owner {
		return nil
	}
	m.fenceRejections.Inc()
	return fmt.Errorf("%w: object %q admitted on %q@%d, now %q@%d",
		ErrOwnershipMoved, objectID, owner, epoch, nowOwner, v.epoch)
}

// CheckMoving returns a TransitionError while the post-rebalance
// transition window is open, nil otherwise.
func (m *Membership) CheckMoving() error {
	until := m.view.Load().movingUntil
	if until.IsZero() {
		return nil
	}
	now := m.cfg.Clock.Now()
	if now.Before(until) {
		return &TransitionError{RetryAfter: until.Sub(now)}
	}
	return nil
}

// Epoch returns the current ownership epoch.
func (m *Membership) Epoch() uint64 {
	return m.view.Load().epoch
}

// LiveNames returns the published live member name set. The slice is
// shared and must not be mutated; its order is arbitrary but stable
// between membership changes, which is all round-robin ingress
// selection needs.
func (m *Membership) LiveNames() []string {
	return m.view.Load().names
}

// Metrics exposes the membership's registry (cluster.*). The platform's
// ownership layer registers its routing counters there too.
func (m *Membership) Metrics() *metrics.Registry { return m.reg }

// MemberInfo is one live member's view for stats.
type MemberInfo struct {
	Name     string        `json:"name"`
	Local    bool          `json:"local"`
	LeaseAge time.Duration `json:"lease_age"`
	// LeaseRemaining is time until expiry; ≤ 0 means about to be
	// swept.
	LeaseRemaining time.Duration `json:"lease_remaining"`
}

// Members returns the live member set sorted by name.
func (m *Membership) Members() []MemberInfo {
	now := m.cfg.Clock.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MemberInfo, 0, len(m.live))
	for name, exp := range m.live {
		info := MemberInfo{Name: name, LeaseRemaining: exp.Sub(now)}
		if mem, ok := m.members[name]; ok {
			info.Local = true
			info.LeaseAge = now.Sub(mem.joined)
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

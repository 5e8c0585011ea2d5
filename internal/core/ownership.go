// Ownership wires the cluster membership layer into the platform:
// worker VMs hold kvstore-persisted leases, objects map to live
// workers by rendezvous hash, and every state commit carries an
// admission stamp that the runtime fences at commit time. On lease
// expiry or explicit drain the membership rebalances, and the
// platform's rebalance hook requeues the dead node's durable async
// work and replays trigger delivery cursors so acknowledged work is
// never lost.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/hpcclab/oparaca-go/internal/cluster"
	"github.com/hpcclab/oparaca-go/internal/metrics"
)

// ErrOwnershipDisabled is returned by ownership admin operations when
// the platform was built without OwnershipLeaseTTL.
var ErrOwnershipDisabled = errors.New("core: ownership layer disabled (set OwnershipLeaseTTL)")

// ownerStampKey carries the admission stamp the gate (enter) issued
// through an invocation's context so the commit-time fence can compare
// it against the current epoch.
type ownerStampKey struct{}

type ownerStamp struct {
	owner string
	epoch uint64
}

// ownership is the platform-side view of the membership layer.
type ownership struct {
	members *cluster.Membership

	ingress atomic.Uint64
	// forwarded / ownerLocal split routed invocations by whether the
	// ingress node owned the object: cluster.forwarded and
	// cluster.owner_local, in the membership's registry.
	forwarded, ownerLocal *metrics.Counter
}

// fence is the runtime.Infra hook consulted at the commit exit. A
// commit whose admission stamp is stale — the epoch moved and the
// object's owner changed — is rejected with ErrOwnershipMoved before
// anything is persisted, so a paused ex-owner cannot double-commit
// after failover.
func (p *Platform) fence(ctx context.Context, objectID string) error {
	st, ok := ctx.Value(ownerStampKey{}).(ownerStamp)
	if !ok {
		return nil
	}
	return p.own.members.Fence(objectID, st.owner, st.epoch)
}

// requeueable classifies invocation errors the async queue should
// redeliver rather than fail: fence rejections and transition-window
// fast-fails both mean "the work is fine, the owner moved".
func requeueable(err error) bool {
	return errors.Is(err, cluster.ErrOwnershipMoved) || errors.Is(err, cluster.ErrOwnershipMoving)
}

// onRebalance is the membership's rebalance hook: after an epoch bump
// it adopts the dead nodes' durable async records back into the local
// queue and replays trigger delivery cursors, so queued and in-flight
// work acknowledged before the failure is redelivered under the new
// ownership.
func (p *Platform) onRebalance(dead []string, epoch uint64) {
	ctx, cancel := p.cfg.Clock.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// A record that fails to adopt stays stranded in the store, where the
	// next rebalance or a successor's recovery finds it again.
	_, _ = p.RecoverStrandedInvocations(ctx)
}

// Membership exposes the lease-based membership layer (nil when
// ownership is disabled).
func (p *Platform) Membership() *cluster.Membership {
	if p.own == nil {
		return nil
	}
	return p.own.members
}

// KillNode models a worker VM crash for the ownership layer: its
// heartbeat stops and failover happens when the lease expires, exactly
// as for a real dead machine.
func (p *Platform) KillNode(name string) error {
	if p.own == nil {
		return ErrOwnershipDisabled
	}
	return p.own.members.Kill(name)
}

// DrainNode removes a worker from the ownership layer gracefully: its
// lease is deleted and its objects reassigned immediately.
func (p *Platform) DrainNode(name string) error {
	if p.own == nil {
		return ErrOwnershipDisabled
	}
	return p.own.members.Leave(name)
}

// pickIngress round-robins over the live member set, modelling a
// load balancer spreading requests across nodes. It reads the
// published lock-free name set so un-pinned ingress selection costs
// no locks or allocations on the invoke hot path.
func (o *ownership) pickIngress() string {
	names := o.members.LiveNames()
	if len(names) == 0 {
		return ""
	}
	i := o.ingress.Add(1)
	return names[int((i-1)%uint64(len(names)))]
}

// MemberStats describes one lease-holding node in the cluster
// ownership view.
type MemberStats struct {
	Name  string `json:"name"`
	Local bool   `json:"local"`
	// LeaseAge is how long the node has held its lease.
	LeaseAge time.Duration `json:"lease_age"`
	// LeaseRemaining is time until lease expiry; ≤ 0 means the node is
	// about to be swept out.
	LeaseRemaining time.Duration `json:"lease_remaining"`
	// Objects is how many directory objects currently hash to this
	// node.
	Objects int `json:"objects"`
}

// ClusterStats is the ownership-layer half of a platform snapshot.
type ClusterStats struct {
	// Enabled reports whether the ownership layer is active; all other
	// fields are zero when it is not.
	Enabled bool `json:"enabled"`
	// Epoch is the current ownership epoch (bumped per rebalance).
	Epoch uint64 `json:"epoch"`
	// Moving reports an open post-rebalance transition window.
	Moving bool `json:"moving"`
	// Members is the live member set with per-node object counts.
	Members []MemberStats `json:"members,omitempty"`
	// Rebalances counts completed failovers/drains.
	Rebalances int64 `json:"rebalances"`
	// FenceRejections counts commits the epoch fence refused — each is
	// a double-commit that did not happen.
	FenceRejections int64 `json:"fence_rejections"`
	// Forwarded / OwnerLocal split routed invocations by whether the
	// ingress node owned the object.
	Forwarded  int64 `json:"forwarded"`
	OwnerLocal int64 `json:"owner_local"`
}

// ClusterStats snapshots just the ownership layer (the gateway's
// GET /api/cluster and ocli cluster), cheaper than the full Stats walk.
// It holds p.mu only to count the directory's objects per owner.
func (p *Platform) ClusterStats() ClusterStats {
	if p.own == nil {
		return ClusterStats{}
	}
	m, reg := p.own.members, p.own.members.Metrics()
	cs := ClusterStats{
		Enabled:         true,
		Epoch:           m.Epoch(),
		Moving:          m.CheckMoving() != nil,
		Rebalances:      reg.Counter("cluster.rebalances").Value(),
		FenceRejections: reg.Counter("cluster.fence_rejections").Value(),
		Forwarded:       p.own.forwarded.Value(),
		OwnerLocal:      p.own.ownerLocal.Value(),
	}
	counts := make(map[string]int, 8)
	p.mu.Lock()
	for id := range p.dir {
		if owner, ok := m.Owner(id); ok {
			counts[owner]++
		}
	}
	p.mu.Unlock()
	for _, mi := range m.Members() {
		cs.Members = append(cs.Members, MemberStats{
			Name:           mi.Name,
			Local:          mi.Local,
			LeaseAge:       mi.LeaseAge,
			LeaseRemaining: mi.LeaseRemaining,
			Objects:        counts[mi.Name],
		})
	}
	return cs
}

// ownershipRegistries is the ownership layer's part of Registries: the
// membership's cluster.* series, then one registry per live member,
// labeled {node}, holding its object count and lease time left.
func (p *Platform) ownershipRegistries() []metrics.LabeledRegistry {
	regs := []metrics.LabeledRegistry{{Reg: p.own.members.Metrics()}}
	for _, mb := range p.ClusterStats().Members {
		r := metrics.NewRegistry()
		r.GaugeFunc("cluster.member_objects", func() float64 { return float64(mb.Objects) })
		r.GaugeFunc("cluster.member_lease_remaining_seconds", mb.LeaseRemaining.Seconds)
		regs = append(regs, metrics.LabeledRegistry{Labels: metrics.Labels("node", mb.Name), Reg: r})
	}
	return regs
}

// RecoverStrandedInvocations adopts asynchronous invocation records a
// dead predecessor process left non-terminal in the shared backing
// store into this platform's queue, and replays trigger delivery
// cursors. Call it on a successor platform after redeploying classes
// (dispatch needs the class runtimes); in-process node failures run
// the same recovery automatically through the rebalance hook. Returns
// how many records were adopted.
func (p *Platform) RecoverStrandedInvocations(ctx context.Context) (int, error) {
	n, err := p.queue.RecoverStranded(ctx)
	p.bus.ReplayCursors()
	return n, err
}

// newOwnership builds the membership layer over the backing store and
// joins every cluster node. Callers wire OnRebalance before any lease
// can lapse because the monitor only starts inside NewMembership.
func newOwnership(p *Platform, cfg Config) (*ownership, error) {
	// A lease renews every third of its TTL, and a rebalance's
	// transition window lasts one heartbeat: also how long a routed
	// invocation that races it is told to back off.
	heartbeat := cfg.OwnershipLeaseTTL / 3
	members, err := cluster.NewMembership(cluster.MembershipConfig{
		Backing:          p.backing,
		Clock:            cfg.Clock,
		LeaseTTL:         cfg.OwnershipLeaseTTL,
		Heartbeat:        heartbeat,
		TransitionWindow: heartbeat,
		JitterSeed:       cfg.Chaos.Seed,
		OnRebalance:      p.onRebalance,
	})
	if err != nil {
		return nil, fmt.Errorf("core: membership: %w", err)
	}
	o := &ownership{
		members:    members,
		forwarded:  members.Metrics().Counter("cluster.forwarded"),
		ownerLocal: members.Metrics().Counter("cluster.owner_local"),
	}
	for _, n := range p.cluster.Nodes() {
		if err := members.Join(n.Name()); err != nil {
			members.Close()
			return nil, fmt.Errorf("core: joining %s: %w", n.Name(), err)
		}
	}
	return o, nil
}

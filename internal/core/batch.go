package core

import (
	"sync/atomic"

	"repro/internal/origin"
)

// The ESCUDO rules depend only on the two origins, the two rings, the
// operation, and the object's ACL — never on element identity. When a
// principal touches a whole DOM region at once (innerHTML reads, the
// render traversal), the region's nodes collapse into a handful of
// (origin, ring, ACL) equivalence classes: a phpBB topic page with 200
// ring-3 posts asks the same ⟨P ⊳ O⟩ question 200 times. The batched
// path below computes each distinct class once — a single rule
// evaluation (or a single cache probe under WithCache) per class —
// while still emitting one audited Decision per node, so §4.2 complete
// mediation is unchanged: only the decision computation is
// deduplicated.

// BatchAuthorizer is a Monitor that can decide many objects of one
// (principal, op) query in a single call, deduplicating decision
// computation by equivalence class.
type BatchAuthorizer interface {
	Monitor
	// AuthorizeBatch decides op for principal p on every object,
	// returning one Decision per object in input order. Each decision
	// is audited individually. The returned slice may be
	// retained by the audit stream (AuditLog.RecordAll stores it
	// as-is); callers must not mutate it.
	AuthorizeBatch(p Context, op Op, objects []Context) []Decision
}

// AuthorizeBatch dispatches to m's batched path when it has one, and
// falls back to per-object Authorize otherwise (then every object is a
// distinct decision — correct, just undeduplicated).
func AuthorizeBatch(m Monitor, p Context, op Op, objects []Context) []Decision {
	if len(objects) == 0 {
		return nil
	}
	if ba, ok := m.(BatchAuthorizer); ok {
		return ba.AuthorizeBatch(p, op, objects)
	}
	return authorizeEach(m, p, op, objects)
}

// authorizeEach decides every object on its own through m: the path for
// a stack with no batching to pass through.
func authorizeEach(m Monitor, p Context, op Op, objects []Context) []Decision {
	out := make([]Decision, len(objects))
	for i, o := range objects {
		out[i] = m.Authorize(p, op, o)
	}
	recordBatch(len(objects), len(objects))
	return out
}

// batchClassKey is the decision-equivalence class of an object under a
// fixed (principal, op): everything the rules read from the object.
type batchClassKey struct {
	origin origin.Origin
	ring   Ring
	acl    ACL
}

// classVerdict is what a class's decision contributes to each of its
// objects' decisions: the rest echoes the query.
type classVerdict struct {
	allowed bool
	rule    RuleID
}

// batchClasses is the small-region fast path for class lookup: most
// DOM regions collapse into a handful of classes, where a linear scan
// over fixed arrays on batchDecide's stack beats a map. Past
// maxLinearClasses it spills into a map.
const maxLinearClasses = 16

type batchClasses struct {
	n        int
	keys     [maxLinearClasses]batchClassKey
	verdicts [maxLinearClasses]classVerdict
	spill    map[batchClassKey]classVerdict
}

func (c *batchClasses) get(k batchClassKey) (classVerdict, bool) {
	for i := range c.n {
		if c.keys[i] == k {
			return c.verdicts[i], true
		}
	}
	v, ok := c.spill[k]
	return v, ok
}

func (c *batchClasses) put(k batchClassKey, v classVerdict) {
	if c.n < maxLinearClasses {
		c.keys[c.n], c.verdicts[c.n] = k, v
		c.n++
		return
	}
	if c.spill == nil {
		c.spill = make(map[batchClassKey]classVerdict)
	}
	c.spill[k] = v
}

func (c *batchClasses) len() int { return c.n + len(c.spill) }

// batchDecide is the shared batching core: group objects by class,
// ask m once per distinct class, then emit a per-node Decision
// (echoing the node's own context, so audit trails keep the real
// labels). It returns the decisions in input order.
func batchDecide(m Monitor, p Context, op Op, objects []Context) []Decision {
	out := make([]Decision, len(objects))
	var classes batchClasses
	for i, o := range objects {
		k := batchClassKey{origin: o.Origin, ring: o.Ring, acl: o.ACL}
		v, ok := classes.get(k)
		if !ok {
			d := m.Authorize(p, op, o)
			v = classVerdict{allowed: d.Allowed, rule: d.Rule}
			classes.put(k, v)
		}
		out[i] = Decision{Allowed: v.allowed, Rule: v.rule, Principal: p, Op: op, Object: o}
	}
	recordBatch(len(objects), classes.len())
	return out
}

var _ BatchAuthorizer = (*ERM)(nil)

// AuthorizeBatch implements BatchAuthorizer: one rule evaluation per
// distinct (origin, ring, ACL) class, one decision per object.
func (m *ERM) AuthorizeBatch(p Context, op Op, objects []Context) []Decision {
	return batchDecide(m, p, op, objects)
}

var _ BatchAuthorizer = (*SOPMonitor)(nil)

// AuthorizeBatch implements BatchAuthorizer for the SOP baseline.
func (m *SOPMonitor) AuthorizeBatch(p Context, op Op, objects []Context) []Decision {
	return batchDecide(m, p, op, objects)
}

var _ BatchAuthorizer = (*cacheLayer)(nil)

// AuthorizeBatch implements BatchAuthorizer with the cache fast path:
// each distinct class costs a single cache probe (lookup, and on a
// miss one inner evaluation plus the store); repeated classes within
// the batch don't touch the cache at all.
func (m *cacheLayer) AuthorizeBatch(p Context, op Op, objects []Context) []Decision {
	return batchDecide(m, p, op, objects)
}

// Batch accounting: process-wide atomic counters of how many objects
// flowed through batched authorization and how many distinct decisions
// were actually computed. The load driver reports the pair per phase
// (nodes authorized vs. distinct decisions) as the dedup measure.
var (
	batchNodes    atomic.Uint64
	batchDistinct atomic.Uint64
)

func recordBatch(nodes, distinct int) {
	batchNodes.Add(uint64(nodes))
	batchDistinct.Add(uint64(distinct))
}

// BatchStats is a point-in-time snapshot of the batch counters.
type BatchStats struct {
	// Nodes counts objects authorized through the batched path.
	Nodes uint64
	// Distinct counts decisions actually computed (≤ Nodes; the gap is
	// the dedup win).
	Distinct uint64
}

// Sub returns the delta since an earlier snapshot, for per-phase
// reporting.
func (s BatchStats) Sub(earlier BatchStats) BatchStats {
	return BatchStats{Nodes: s.Nodes - earlier.Nodes, Distinct: s.Distinct - earlier.Distinct}
}

// DedupRatio returns Distinct/Nodes (1 means no dedup; 0 before any
// batch).
func (s BatchStats) DedupRatio() float64 {
	if s.Nodes == 0 {
		return 0
	}
	return float64(s.Distinct) / float64(s.Nodes)
}

// ReadBatchStats snapshots the process-wide batch counters.
func ReadBatchStats() BatchStats {
	return BatchStats{Nodes: batchNodes.Load(), Distinct: batchDistinct.Load()}
}

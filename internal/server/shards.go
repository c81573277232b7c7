package server

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// fnv32 is FNV-1a, the key-to-shard hash. Inlined rather than
// hash/fnv so the per-request path allocates nothing.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Router owns the shard set: N independent engine instances, each a
// Backend, plus one RWMutex per shard for cross-shard coordination.
//
// Requests confined to one shard never touch the mutexes — a single
// native transaction is atomic there, and a one-key read is a one-object
// read that no multi-key anomaly can be observed through. Only requests
// that TOUCH MORE THAN ONE SHARD coordinate: write batches take the
// exclusive lock and read-only batches/scans the shared lock on every
// participating shard, always in ascending shard-id order — the same
// ordering discipline as the engines' Var-id-ordered commit locking, and
// deadlock-free for the same reason. While a cross-shard write batch
// holds its exclusive locks, no multi-shard reader can start and no
// other multi-shard writer can interleave, so every observer that could
// tell the difference sees the batch entirely or not at all.
type Router struct {
	shards []Backend
	locks  []sync.RWMutex
}

// NewRouter builds n shards of the named engine ("stm" or "mvstm").
func NewRouter(n int, engine string) (*Router, error) {
	return NewRouterProfiled(n, engine, false)
}

// NewRouterProfiled is NewRouter with hot-Var labeling: when label is
// set, each shard registers human-readable names for its contention
// units (map keys for stm; for mvstm, the chunk directory and each
// range chunk as shard<i>.chunk@<lo>) so an installed contention
// sketch (stm.SetContentionProfiler and siblings) reports them by name.
// Labeling costs stm inserts one atomic pointer load plus a registry
// store per new key; leave it off when not profiling.
func NewRouterProfiled(n int, engine string, label bool) (*Router, error) {
	if n < 1 {
		return nil, fmt.Errorf("shards = %d, want >= 1", n)
	}
	var mk func(i int) Backend
	switch engine {
	case "stm":
		mk = func(int) Backend {
			if label {
				return newSTMBackendLabeled()
			}
			return NewSTMBackend()
		}
	case "mvstm":
		mk = func(i int) Backend {
			if label {
				return newMVSTMBackend(i)
			}
			return NewMVSTMBackend()
		}
	default:
		return nil, fmt.Errorf("unknown engine %q (want stm or mvstm)", engine)
	}
	r := &Router{
		shards: make([]Backend, n),
		locks:  make([]sync.RWMutex, n),
	}
	for i := range r.shards {
		r.shards[i] = mk(i)
	}
	return r, nil
}

// NumShards reports the shard count.
func (r *Router) NumShards() int { return len(r.shards) }

// ShardOfKey reports which of n hash-partitioned shards owns key.
// Exported so load generators (cmd/tmload's -affine mode) can build
// shard-confined batches without duplicating the partitioning hash.
func ShardOfKey(key string, n int) int {
	return int(fnv32(key) % uint32(n))
}

// ShardFor reports which shard owns key.
func (r *Router) ShardFor(key string) int {
	return ShardOfKey(key, len(r.shards))
}

// Get reads one key from its shard. Single-object: no coordination.
func (r *Router) Get(key string) (string, bool, error) {
	return r.shards[r.ShardFor(key)].Get(key)
}

// Stats returns the engine counters (engine-global, so shard 0 speaks
// for all) and the per-shard key counts.
func (r *Router) Stats() (Stats, []int) {
	lens := make([]int, len(r.shards))
	for i, s := range r.shards {
		n, _ := s.Len()
		lens[i] = n
	}
	return r.shards[0].Stats(), lens
}

// Scan merges the half-open range [from, to) across every shard (keys
// are hash-partitioned, so each shard may hold any part of the range).
// All shard read-locks are taken in id order before the first shard is
// read: a scan is the archetypal multi-shard reader and must not observe
// half of a concurrent cross-shard batch. Each shard returns at most
// limit keys already in order — the global first limit keys are among
// them — so the merge only interleaves the sorted runs.
func (r *Router) Scan(from, to string, limit int) ([]KV, error) {
	for i := range r.locks {
		r.locks[i].RLock()
	}
	defer func() {
		for i := range r.locks {
			r.locks[i].RUnlock()
		}
	}()
	runs := make([][]KV, 0, len(r.shards))
	total := 0
	for _, s := range r.shards {
		kvs, err := s.Scan(from, to, limit)
		if err != nil {
			return nil, err
		}
		if len(kvs) > 0 {
			runs = append(runs, kvs)
			total += len(kvs)
		}
	}
	if total == 0 {
		return nil, nil
	}
	if limit > 0 {
		total = min(total, limit)
	}
	out := make([]KV, total)
	for i := range out {
		m := 0
		for j := 1; j < len(runs); j++ {
			if runs[j][0].Key < runs[m][0].Key {
				m = j
			}
		}
		out[i] = runs[m][0]
		if runs[m] = runs[m][1:]; len(runs[m]) == 0 {
			runs = slices.Delete(runs, m, m+1)
		}
	}
	return out, nil
}

// shardOps is one shard's slice of a batch, remembering where each op
// sat in the original request so results return in order.
type shardOps struct {
	shard int
	ops   []Op
	idx   []int
}

// Batch runs ops as one transactional request. Ops must already have
// passed ValidateOps. A batch confined to one shard is one native
// transaction; a cross-shard batch is two-phase locked in shard-id order
// (exclusive when the batch writes, shared when it only reads), with one
// native transaction per participating shard applied while all locks are
// held.
func (r *Router) Batch(ops []Op) ([]OpResult, error) {
	groups := map[int]*shardOps{}
	order := []int{}
	writes := false
	for i, op := range ops {
		s := r.ShardFor(op.Key)
		g, ok := groups[s]
		if !ok {
			g = &shardOps{shard: s}
			groups[s] = g
			order = append(order, s)
		}
		g.ops = append(g.ops, op)
		g.idx = append(g.idx, i)
		if op.Kind != "get" {
			writes = true
		}
	}
	if len(order) == 1 {
		// Single shard: the native transaction is the atomicity story.
		return r.shards[order[0]].Apply(ops)
	}
	sort.Ints(order)
	// Phase 1: acquire every participant's lock in ascending shard id.
	for _, s := range order {
		if writes {
			r.locks[s].Lock()
		} else {
			r.locks[s].RLock()
		}
	}
	// Phase 2: apply, then release everything. (Engine-level aborts —
	// only possible when an admission budget is installed — can leave a
	// prefix of shards committed; the redo-log roadmap item is the
	// durable fix, and the serving tier does not install budgets.)
	defer func() {
		for _, s := range order {
			if writes {
				r.locks[s].Unlock()
			} else {
				r.locks[s].RUnlock()
			}
		}
	}()
	res := make([]OpResult, len(ops))
	for _, s := range order {
		g := groups[s]
		sub, err := r.shards[s].Apply(g.ops)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		for j, oi := range g.idx {
			res[oi] = sub[j]
		}
	}
	return res, nil
}

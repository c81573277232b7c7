package server

import (
	"fmt"
	"slices"
	"sort"

	"repro/stm/mvstm"
)

// chunkMax caps the KVs one chunk holds. A write copies its chunk, and
// every chain keeps its recent versions, so the cap sets the bytes each
// write retains; a scan reads one chunk per chunkMax keys it covers. On
// the kv-txn benchmark (2-vCPU Xeon VM) 16 held the same scan latency
// as 32 with ~3.5% less live heap.
const chunkMax = 16

// chunk is one range partition of a shard: every key in
// [lo, next chunk's lo) lives, sorted, in the slice behind v.
type chunk struct {
	lo string
	v  *mvstm.Var[[]KV]
}

// mvstmBackend serves a shard from mvstm Vars. mvstm ships no container
// types, so the backend builds its own: a directory Var holding the
// chunks sorted by lo (the first chunk's lo is ""), each chunk a sorted
// []KV of at most chunkMax entries behind its own Var. Slices are
// copy-on-write: a write publishes a new version and readers pin a
// snapshot, so the multi-version engine's abort-free read path does the
// isolation work.
//
// Every read runs in one mvstm.AtomicallyRO. Loading the directory and
// then the chunk as two separate peeks would not be linearizable across a
// split: a reader holding the old directory would look in the old chunk
// for a key a completed put had already moved to a new one.
type mvstmBackend struct {
	dir   *mvstm.Var[[]chunk]
	shard int // labels chunk Vars shard<i>.chunk@<lo> when >= 0
}

// NewMVSTMBackend returns a shard backend over fresh mvstm version chains.
func NewMVSTMBackend() Backend {
	return newMVSTMBackend(-1)
}

// newMVSTMBackend builds a one-chunk directory; a non-negative shard
// index labels the directory shard<i>.dir and each chunk Var, when it is
// created, shard<i>.chunk@<lo> in the hot-Var registry — chunks are this
// backend's contention unit (copy-on-write slices), so hot-key reports
// name the chunk, not an individual key.
func newMVSTMBackend(shard int) Backend {
	b := &mvstmBackend{shard: shard}
	b.dir = mvstm.NewVar([]chunk{b.newChunk("")})
	if shard >= 0 {
		b.dir.Label(fmt.Sprintf("shard%d.dir", shard))
	}
	return b
}

// newChunk creates an empty chunk starting at lo.
func (b *mvstmBackend) newChunk(lo string) chunk {
	v := mvstm.NewVar[[]KV](nil)
	if b.shard >= 0 {
		v.Label(fmt.Sprintf("shard%d.chunk@%s", b.shard, lo))
	}
	return chunk{lo: lo, v: v}
}

// locate returns the index of the chunk whose range holds key: the last
// chunk with lo <= key (the first chunk's lo is "", so there is one).
func locate(dir []chunk, key string) int {
	return sort.Search(len(dir), func(i int) bool { return dir[i].lo > key }) - 1
}

// search locates key in a sorted chunk slice.
func search(kvs []KV, key string) (int, bool) {
	i := sort.Search(len(kvs), func(i int) bool { return kvs[i].Key >= key })
	return i, i < len(kvs) && kvs[i].Key == key
}

func (b *mvstmBackend) Get(key string) (string, bool, error) {
	var (
		val   string
		found bool
	)
	err := mvstm.AtomicallyRO(func(tx *mvstm.Tx) error {
		dir := b.dir.Get(tx)
		kvs := dir[locate(dir, key)].v.Get(tx)
		var i int
		if i, found = search(kvs, key); found {
			val = kvs[i].Value
		}
		return nil
	})
	return val, found, err
}

// Scan reads only the chunks that overlap [from, to), in order, so the
// result needs no filtering and no sort.
func (b *mvstmBackend) Scan(from, to string, limit int) ([]KV, error) {
	var out []KV
	err := mvstm.AtomicallyRO(func(tx *mvstm.Tx) error {
		out = nil
		dir := b.dir.Get(tx)
		for ci := locate(dir, from); ci < len(dir); ci++ {
			if to != "" && dir[ci].lo >= to {
				return nil
			}
			kvs := dir[ci].v.Get(tx)
			lo, _ := search(kvs, from)
			hi := len(kvs)
			if to != "" {
				hi, _ = search(kvs, to)
				hi = max(hi, lo)
			}
			if limit > 0 {
				hi = min(hi, lo+limit-len(out))
			}
			out = append(out, kvs[lo:hi]...)
			if hi < len(kvs) || (limit > 0 && len(out) == limit) {
				return nil // reached to or limit
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (b *mvstmBackend) Apply(ops []Op) ([]OpResult, error) {
	var res []OpResult
	err := mvstm.Atomically(func(tx *mvstm.Tx) error {
		a := chunkTxn{b: b, tx: tx, dir: b.dir.Get(tx)}
		res = applyOps(ops, a.get, a.put, a.del)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// chunkTxn is one Apply attempt's view of the shard. It copies the
// directory and each chunk at most once per attempt: the copies are the
// attempt's own, so later ops edit them in place and only re-Set the Var.
type chunkTxn struct {
	b        *mvstmBackend
	tx       *mvstm.Tx
	dir      []chunk
	dirOwned bool
	owned    []*mvstm.Var[[]KV] // chunk Vars whose buffered slice this attempt allocated
}

func (a *chunkTxn) owns(v *mvstm.Var[[]KV]) bool {
	return slices.Contains(a.owned, v)
}

// set buffers kvs, a slice this attempt allocated, as v's new value.
func (a *chunkTxn) set(v *mvstm.Var[[]KV], kvs []KV) {
	v.Set(a.tx, kvs)
	if !a.owns(v) {
		a.owned = append(a.owned, v)
	}
}

// setDir buffers a directory edit, copying the directory on the first.
func (a *chunkTxn) setDir(edit func(dir []chunk) []chunk) {
	if !a.dirOwned {
		a.dir = append(make([]chunk, 0, len(a.dir)+1), a.dir...)
		a.dirOwned = true
	}
	a.dir = edit(a.dir)
	a.b.dir.Set(a.tx, a.dir)
}

func (a *chunkTxn) get(key string) (string, bool) {
	kvs := a.dir[locate(a.dir, key)].v.Get(a.tx)
	if i, ok := search(kvs, key); ok {
		return kvs[i].Value, true
	}
	return "", false
}

func (a *chunkTxn) put(key, val string) {
	ci := locate(a.dir, key)
	c := a.dir[ci]
	kvs := c.v.Get(a.tx)
	i, found := search(kvs, key)
	owned := a.owns(c.v)
	switch {
	case found:
		if !owned {
			kvs = slices.Clone(kvs)
		}
		kvs[i].Value = val
		a.set(c.v, kvs)
	case len(kvs) < chunkMax:
		if !owned {
			kvs = append(make([]KV, 0, len(kvs)+1), kvs...)
		}
		a.set(c.v, slices.Insert(kvs, i, KV{Key: key, Value: val}))
	case i == len(kvs) && ci+1 < len(a.dir) && len(a.dir[ci+1].v.Get(a.tx)) < chunkMax:
		// Past the full chunk's last key, and the next chunk has room:
		// the key joins the next chunk's front, which lowers its lo. A
		// gap filled in descending order thus packs chunks too.
		next := a.dir[ci+1]
		nkvs := next.v.Get(a.tx)
		if !a.owns(next.v) {
			nkvs = append(make([]KV, 0, len(nkvs)+1), nkvs...)
		}
		a.set(next.v, slices.Insert(nkvs, 0, KV{Key: key, Value: val}))
		a.setDir(func(dir []chunk) []chunk { dir[ci+1].lo = key; return dir })
	case i == len(kvs):
		// Past the full chunk's last key: start a new chunk and leave
		// this one full, so an ascending preload packs every chunk.
		right := a.b.newChunk(key)
		a.set(right.v, []KV{{Key: key, Value: val}})
		a.setDir(func(dir []chunk) []chunk { return slices.Insert(dir, ci+1, right) })
	default:
		// Split in half. The right half always gets a fresh array: the
		// left may keep an owned one and grow into it.
		h := len(kvs) / 2
		left := kvs[:h]
		if !owned {
			left = append(make([]KV, 0, h+1), left...)
		}
		rkvs := append(make([]KV, 0, len(kvs)-h+1), kvs[h:]...)
		if i < h {
			left = slices.Insert(left, i, KV{Key: key, Value: val})
		} else {
			rkvs = slices.Insert(rkvs, i-h, KV{Key: key, Value: val})
		}
		right := a.b.newChunk(rkvs[0].Key)
		a.set(c.v, left)
		a.set(right.v, rkvs)
		a.setDir(func(dir []chunk) []chunk { return slices.Insert(dir, ci+1, right) })
	}
}

func (a *chunkTxn) del(key string) bool {
	ci := locate(a.dir, key)
	c := a.dir[ci]
	kvs := c.v.Get(a.tx)
	i, found := search(kvs, key)
	if !found {
		return false
	}
	if len(kvs) == 1 && len(a.dir) > 1 {
		// The chunk empties: drop it, and its range joins the previous
		// chunk's (or, for the first chunk, the next one takes lo "").
		a.setDir(func(dir []chunk) []chunk {
			dir = slices.Delete(dir, ci, ci+1)
			dir[0].lo = ""
			return dir
		})
		return true
	}
	if !a.owns(c.v) {
		kvs = slices.Clone(kvs)
	}
	a.set(c.v, slices.Delete(kvs, i, i+1))
	return true
}

func (b *mvstmBackend) Len() (int, error) {
	n := 0
	err := mvstm.AtomicallyRO(func(tx *mvstm.Tx) error {
		n = 0
		for _, c := range b.dir.Get(tx) {
			n += len(c.v.Get(tx))
		}
		return nil
	})
	return n, err
}

func (b *mvstmBackend) Stats() Stats {
	s := mvstm.ReadStats()
	return Stats{
		Commits:          s.Commits,
		ROCommits:        s.ROCommits,
		Aborts:           s.Aborts,
		BudgetAborts:     s.BudgetAborts,
		AbortReasons:     s.AbortReasons.Map(),
		ClockBlockClaims: s.ClockBlockClaims,
	}
}

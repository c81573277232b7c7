package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/server"
)

// Sizes of the three workloads. They are fixed, not flags: a later change
// is compared with its parent on exactly these inputs.
const (
	// kv-read: ~250k keys, well past a 4 MiB L2, with short scans.
	readKeys      = 250_000
	readScanLimit = 20
	readScanSpan  = 40 // [from, to) covers 40 keys; the limit cuts it to 20

	// kv-txn and lib-bank: 256 groups of 64 keys (16,384 keys, about
	// L2-sized), with every transfer inside one group, so that each
	// group's sum is a conserved total an audit can check.
	groups         = 256
	groupSize      = 64
	initialBalance = 1000
	groupTotal     = groupSize * initialBalance

	zipfS = 1.1
)

// class is the request class every latency metric is split by. A txn is
// any write request: a put, a batch of transfers, a library transfer.
type class int

const (
	clsGet class = iota
	clsScan
	clsTxn
	nClass
)

var classNames = [nClass]string{"get", "scan", "txn"}

// op is one generated request. Only the fields of its class are set.
type op struct {
	cls   class
	key   string // get
	from  string // scan: half-open range [from, to), at most limit keys
	to    string
	limit int
	// audit marks a scan of one whole group, whose sum must be
	// groupTotal; a kv-read scan instead expects exactly want keys,
	// starting at key index base.
	audit bool
	base  int
	want  int
	path  string      // txn: "/put" (one put) or "/batch"
	batch []server.Op // txn
	group int         // lib-bank: the group of a transfer, audit or get
	a, b  int         // lib-bank transfer: members a -> b, amount amt
	amt   int
}

func readKey(i int) string { return fmt.Sprintf("k%07d", i) }

func groupKey(g, m int) string { return fmt.Sprintf("g%03d/%02d", g, m) }

// groupRange is the half-open key range holding exactly group g.
func groupRange(g int) (from, to string) {
	p := fmt.Sprintf("g%03d/", g)
	return p, p + "~"
}

// readValue is the value preloaded at kv-read key i; a put to key i
// writes i*1000 plus 1..999, so every value a get or scan returns names
// the key it belongs to.
func readValue(i int) int { return i * 1000 }

// perm is a seeded bijection on [0, n): it spreads the Zipf ranks over
// the keyspace so that the hot keys are not simply the lowest ones.
type perm struct{ mul, add, n int }

func newPerm(seed int64, n int) perm {
	r := rand.New(rand.NewSource(seed))
	for {
		m := 1 + r.Intn(n-1)
		if gcd(m, n) == 1 {
			return perm{mul: m, add: r.Intn(n), n: n}
		}
	}
}

func (p perm) at(i int) int { return int((int64(i)*int64(p.mul) + int64(p.add)) % int64(p.n)) }

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// stream is one load worker's seeded request sequence. Workers of one run
// share the permutation, so they agree on which keys are hot.
type stream struct {
	r    *rand.Rand
	z    *rand.Zipf
	p    perm
	next func(s *stream) op
}

// newStream returns stream id of the given workload. The same seed and id
// always give the same sequence of requests.
func newStream(wl string, seed int64, id int) *stream {
	n, next := groups, nextGroupOp
	switch wl {
	case "kv-read":
		n, next = readKeys, nextReadOp
	case "lib-bank":
		next = nextBankOp
	}
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(id)))
	return &stream{r: r, z: rand.NewZipf(r, zipfS, 1, uint64(n-1)), p: newPerm(seed, n), next: next}
}

func (s *stream) hot() int { return s.p.at(int(s.z.Uint64())) }

// nextReadOp: 90% get, 5% short scan, 5% single-key put, Zipf over keys.
func nextReadOp(s *stream) op {
	i := s.hot()
	x := s.r.Float64()
	switch {
	case x < 0.90:
		return op{cls: clsGet, key: readKey(i)}
	case x < 0.95:
		return op{cls: clsScan, from: readKey(i), to: readKey(i + readScanSpan), limit: readScanLimit,
			base: i, want: min(readScanLimit, readKeys-i)}
	default:
		v := readValue(i) + 1 + s.r.Intn(999)
		return op{cls: clsTxn, path: "/put", batch: []server.Op{{Kind: "put", Key: readKey(i), Value: strconv.Itoa(v)}}}
	}
}

// members picks k distinct members of a group.
func (s *stream) members(k int) []int {
	out := make([]int, 0, k)
	for len(out) < k {
		m := s.r.Intn(groupSize)
		dup := false
		for _, o := range out {
			dup = dup || o == m
		}
		if !dup {
			out = append(out, m)
		}
	}
	return out
}

// nextGroupOp (kv-txn): 70% 4-key transfer batches inside one group
// (paired -1/+1 adds), 20% audits of one whole group, 10% gets; Zipf over
// groups.
func nextGroupOp(s *stream) op {
	g := s.hot()
	x := s.r.Float64()
	switch {
	case x < 0.70:
		m := s.members(4)
		batch := make([]server.Op, 4)
		for j, mem := range m {
			batch[j] = server.Op{Kind: "add", Key: groupKey(g, mem), Delta: int64(2*(j%2) - 1)}
		}
		return op{cls: clsTxn, path: "/batch", batch: batch, group: g}
	case x < 0.90:
		from, to := groupRange(g)
		return op{cls: clsScan, from: from, to: to, limit: groupSize, audit: true, want: groupSize, group: g}
	default:
		return op{cls: clsGet, key: groupKey(g, s.r.Intn(groupSize)), group: g}
	}
}

// nextBankOp (lib-bank): 85% 2-account transfers inside one group, 10%
// group audits, 5% single-account reads; Zipf over groups.
func nextBankOp(s *stream) op {
	g := s.hot()
	x := s.r.Float64()
	switch {
	case x < 0.85:
		m := s.members(2)
		return op{cls: clsTxn, group: g, a: m[0], b: m[1], amt: 1 + s.r.Intn(10)}
	case x < 0.95:
		from, to := groupRange(g)
		return op{cls: clsScan, from: from, to: to, limit: groupSize, audit: true, want: groupSize, group: g}
	default:
		m := s.r.Intn(groupSize)
		return op{cls: clsGet, key: groupKey(g, m), group: g, a: m}
	}
}

// preloadOps is the initial store of a served workload, as put ops.
func preloadOps(wl string) []server.Op {
	if wl == "kv-read" {
		ops := make([]server.Op, readKeys)
		for i := range ops {
			ops[i] = server.Op{Kind: "put", Key: readKey(i), Value: strconv.Itoa(readValue(i))}
		}
		return ops
	}
	ops := make([]server.Op, 0, groups*groupSize)
	for g := 0; g < groups; g++ {
		for m := 0; m < groupSize; m++ {
			ops = append(ops, server.Op{Kind: "put", Key: groupKey(g, m), Value: strconv.Itoa(initialBalance)})
		}
	}
	return ops
}

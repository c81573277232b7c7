package server

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/stm/mvstm"
)

// kvModel is the sequential reference the backends are checked against:
// a plain map, sorted on demand.
type kvModel map[string]string

func (m kvModel) apply(ops []Op) []OpResult {
	res := make([]OpResult, len(ops))
	for i, op := range ops {
		cur, ok := m[op.Key]
		switch op.Kind {
		case "get":
			res[i] = OpResult{Key: op.Key, Found: ok, Value: cur}
		case "put":
			m[op.Key] = op.Value
			res[i] = OpResult{Key: op.Key, Found: true, Value: op.Value}
		case "delete":
			delete(m, op.Key)
			res[i] = OpResult{Key: op.Key, Found: ok}
		case "add":
			n, err := strconv.ParseInt(cur, 10, 64)
			if err != nil {
				n = 0
			}
			m[op.Key] = strconv.FormatInt(n+op.Delta, 10)
			res[i] = OpResult{Key: op.Key, Found: true, Value: m[op.Key]}
		}
	}
	return res
}

func (m kvModel) scan(from, to string, limit int) []KV {
	var out []KV
	for _, k := range slices.Sorted(maps.Keys(m)) {
		if k >= from && (to == "" || k < to) && (limit <= 0 || len(out) < limit) {
			out = append(out, KV{Key: k, Value: m[k]})
		}
	}
	return out
}

// checkChunks verifies the mvstm backend's directory invariants: the
// first lo is "", lo strictly ascends, every chunk holds at most
// chunkMax sorted keys inside its own range, and only a lone chunk is
// ever empty. It is a no-op for other backends.
func checkChunks(t *testing.T, b Backend) {
	t.Helper()
	mb, ok := b.(*mvstmBackend)
	if !ok {
		return
	}
	dir := mb.dir.Load()
	if len(dir) == 0 || dir[0].lo != "" {
		t.Fatalf("directory must start with lo \"\": %d chunks", len(dir))
	}
	for ci, c := range dir {
		kvs := c.v.Load()
		if len(kvs) > chunkMax || (len(kvs) == 0 && len(dir) > 1) {
			t.Fatalf("chunk %d@%q holds %d keys (max %d, empty only when alone)", ci, c.lo, len(kvs), chunkMax)
		}
		hi := ""
		if ci+1 < len(dir) {
			hi = dir[ci+1].lo
			if hi <= c.lo {
				t.Fatalf("chunk %d lo %q not below next lo %q", ci, c.lo, hi)
			}
		}
		for i, kv := range kvs {
			if kv.Key < c.lo || (hi != "" && kv.Key >= hi) || (i > 0 && kvs[i-1].Key >= kv.Key) {
				t.Fatalf("chunk %d [%q,%q): key %d %q out of order or range", ci, c.lo, hi, i, kv.Key)
			}
		}
	}
}

// chunkLos returns the mvstm backend's chunk bounds, which the scans
// below use as range ends; nil for other backends.
func chunkLos(b Backend) []string {
	mb, ok := b.(*mvstmBackend)
	if !ok {
		return nil
	}
	var los []string
	for _, c := range mb.dir.Load() {
		los = append(los, c.lo)
	}
	return los
}

func diffKey(i int) string { return fmt.Sprintf("k%04d", i) }

// TestBackendMatchesModel runs seeded op sequences against both
// backends and the model: ascending and descending inserts that split
// chunks, a descending fill of a gap, deletes that empty chunks (the
// first chunk included) and a full drain, and random get/put/delete/add
// batches. After every batch Get, Len and a set of scans — across chunk
// boundaries, from a chunk's lo, open-ended, and limited — must agree.
func TestBackendMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			bothBackends(t, func(t *testing.T, b Backend) {
				rng := rand.New(rand.NewSource(seed))
				m := kvModel{}
				run := func(ops []Op) {
					t.Helper()
					got, err := b.Apply(ops)
					if err != nil {
						t.Fatal(err)
					}
					if want := m.apply(ops); !slices.Equal(got, want) {
						t.Fatalf("Apply(%v) = %v, want %v", ops, got, want)
					}
					checkChunks(t, b)
					compareWithModel(t, rng, b, m, ops)
				}
				puts := func(keys []int, per int) {
					for len(keys) > 0 {
						n := min(len(keys), 1+rng.Intn(per))
						var ops []Op
						for _, k := range keys[:n] {
							ops = append(ops, Op{Kind: "put", Key: diffKey(k), Value: strconv.Itoa(k)})
						}
						run(ops)
						keys = keys[n:]
					}
				}
				span := func(lo, hi, step int) []int {
					var ks []int
					for k := lo; k != hi; k += step {
						ks = append(ks, k)
					}
					return ks
				}
				puts(span(0, 400, 2), 24)    // ascending evens: splits past the last key
				puts(span(399, -1, -2), 24)  // descending odds: fills the gaps
				puts(span(999, 700, -1), 24) // descending above everything: splits at the front
				for i := 0; i < 300; i++ {
					var ops []Op
					for n := 1 + rng.Intn(6); n > 0; n-- {
						k := diffKey(rng.Intn(1100))
						switch r := rng.Intn(10); {
						case r < 4:
							ops = append(ops, Op{Kind: "put", Key: k, Value: strconv.Itoa(rng.Intn(100))})
						case r < 6:
							ops = append(ops, Op{Kind: "add", Key: k, Delta: int64(rng.Intn(11) - 5)})
						case r < 8:
							ops = append(ops, Op{Kind: "delete", Key: k})
						default:
							ops = append(ops, Op{Kind: "get", Key: k})
						}
					}
					run(ops)
				}
				// Delete from the bottom up, emptying the first chunk over and
				// over, then drain everything and refill.
				keys := slices.Sorted(maps.Keys(m))
				for len(keys) > 0 {
					n := min(len(keys), 1+rng.Intn(40))
					var ops []Op
					for _, k := range keys[:n] {
						ops = append(ops, Op{Kind: "delete", Key: k})
					}
					run(ops)
					keys = keys[n:]
				}
				if n, _ := b.Len(); n != 0 {
					t.Fatalf("Len after draining = %d", n)
				}
				puts(span(50, 0, -1), 8)
			})
		})
	}
}

// compareWithModel checks Len, Get on the batch's keys and a random key,
// and scans whose ends include chunk bounds.
func compareWithModel(t *testing.T, rng *rand.Rand, b Backend, m kvModel, ops []Op) {
	t.Helper()
	if n, err := b.Len(); err != nil || n != len(m) {
		t.Fatalf("Len = %d (err %v), want %d", n, err, len(m))
	}
	keys := []string{diffKey(rng.Intn(1100))}
	for _, op := range ops {
		keys = append(keys, op.Key)
	}
	for _, k := range keys {
		v, ok, err := b.Get(k)
		if want, wantOK := m[k]; err != nil || ok != wantOK || v != want {
			t.Fatalf("Get(%q) = (%q, %v, %v), want (%q, %v)", k, v, ok, err, want, wantOK)
		}
	}
	ends := append(chunkLos(b), "", diffKey(rng.Intn(1100)), diffKey(rng.Intn(1100)), ops[0].Key)
	for i := 0; i < 4; i++ {
		from, to := ends[rng.Intn(len(ends))], ends[rng.Intn(len(ends))]
		if rng.Intn(4) == 0 {
			to = ""
		}
		limit := []int{0, 1, 5, 33, 70}[rng.Intn(5)]
		got, err := b.Scan(from, to, limit)
		if err != nil {
			t.Fatal(err)
		}
		if want := m.scan(from, to, limit); !slices.Equal(got, want) {
			t.Fatalf("Scan(%q, %q, %d) = %d keys %v, want %d keys %v", from, to, limit, len(got), got, len(want), want)
		}
	}
}

// TestMVSTMChunkPacking pins the split policy's space bound on
// insert-only loads: an ascending load fills every chunk, and a gap
// filled in descending order behind a full chunk packs too instead of
// leaving one single-key chunk per insert.
func TestMVSTMChunkPacking(t *testing.T) {
	b := NewMVSTMBackend().(*mvstmBackend)
	put := func(k string) {
		t.Helper()
		if _, err := b.Apply([]Op{{Kind: "put", Key: k, Value: "v"}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*chunkMax; i++ {
		put(fmt.Sprintf("a%04d", i))
	}
	checkChunks(t, b)
	for _, c := range b.dir.Load() {
		if n := len(c.v.Load()); n != chunkMax {
			t.Fatalf("ascending load left chunk %q with %d keys, want %d", c.lo, n, chunkMax)
		}
	}
	put("c")
	const gap = 10 * chunkMax
	for i := gap - 1; i >= 0; i-- {
		put(fmt.Sprintf("b%04d", i))
	}
	checkChunks(t, b)
	if n, most := len(b.dir.Load()), 4+1+2*gap/chunkMax; n > most {
		t.Fatalf("descending gap fill left %d chunks for %d keys, want at most %d", n, 4*chunkMax+1+gap, most)
	}
}

// TestRouterScanLimitMerge: with a limit below one shard's own match
// count, the router must still return the globally smallest keys, in
// order — each shard's limited run is a prefix of the answer's
// candidates, not the answer itself.
func TestRouterScanLimitMerge(t *testing.T) {
	bothEngines(t, func(t *testing.T, engine string) {
		r, err := NewRouter(4, engine)
		if err != nil {
			t.Fatal(err)
		}
		var ops []Op
		for i := 0; i < 200; i++ {
			ops = append(ops, Op{Kind: "put", Key: fmt.Sprintf("m%03d", i), Value: strconv.Itoa(i)})
		}
		if _, err := r.Batch(ops); err != nil {
			t.Fatal(err)
		}
		const limit = 7 // every shard holds ~50 of the keys
		kvs, err := r.Scan("m010", "", limit)
		if err != nil {
			t.Fatal(err)
		}
		if len(kvs) != limit {
			t.Fatalf("scan returned %d keys, want %d", len(kvs), limit)
		}
		for i, kv := range kvs {
			if want := fmt.Sprintf("m%03d", 10+i); kv.Key != want {
				t.Fatalf("scan[%d] = %q, want %q", i, kv.Key, want)
			}
		}
		if kvs, _ := r.Scan("n", "", limit); kvs != nil {
			t.Fatalf("scan past every key = %v, want nil", kvs)
		}
	})
}

// TestMVSTMSplitRace races splitting inserts and ±1 transfers against
// snapshot scanners on the mvstm backend: every scan must come back
// sorted, without duplicates, and with the transfers' conserved sum, and
// a Get issued after a put's Apply returned must see that put even when
// the put split its chunk. (The stm backend's Scan is a non-atomic
// SnapshotRange walk, so the conserved sum is not its contract.)
func TestMVSTMSplitRace(t *testing.T) {
	b := NewMVSTMBackend()
	const accounts, initial = 64, 100
	var ops []Op
	for i := 0; i < accounts; i++ {
		ops = append(ops, Op{Kind: "put", Key: fmt.Sprintf("a%03d", i), Value: strconv.Itoa(initial)})
	}
	if _, err := b.Apply(ops); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) { // transfers
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				x, y := rng.Intn(accounts), rng.Intn(accounts)
				if _, err := b.Apply([]Op{
					{Kind: "add", Key: fmt.Sprintf("a%03d", x), Delta: -1},
					{Kind: "add", Key: fmt.Sprintf("a%03d", y), Delta: 1},
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func(w int) { // zero-valued inserts between the accounts
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("a%03d.%d.%03d", rng.Intn(accounts), w, i)
				if _, err := b.Apply([]Op{{Kind: "put", Key: k, Value: "0"}}); err != nil {
					t.Error(err)
					return
				}
				if v, ok, err := b.Get(k); err != nil || !ok || v != "0" {
					t.Errorf("Get(%q) after its put returned = (%q, %v, %v)", k, v, ok, err)
					return
				}
			}
		}(w)
	}
	var scans sync.WaitGroup
	for s := 0; s < 2; s++ {
		scans.Add(1)
		go func() {
			defer scans.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				kvs, err := b.Scan("a", "b", 0)
				if err != nil {
					t.Error(err)
					return
				}
				sum := 0
				for i, kv := range kvs {
					if i > 0 && kvs[i-1].Key >= kv.Key {
						t.Errorf("scan not strictly sorted at %d: %q then %q", i, kvs[i-1].Key, kv.Key)
						return
					}
					n, _ := strconv.Atoi(kv.Value)
					sum += n
				}
				if sum != accounts*initial {
					t.Errorf("scan of %d keys sums to %d, want %d", len(kvs), sum, accounts*initial)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	scans.Wait()
	checkChunks(t, b)
	if n, _ := b.Len(); n != accounts+2*300 {
		t.Fatalf("Len = %d, want %d", n, accounts+2*300)
	}
}

// TestMVSTMChunkLabels pins the hot-key vocabulary of a profiled mvstm
// server: a forced commit conflict on a chunk must reach /stats as
// shard<i>.chunk@<lo>, the lo the chunk was created with.
func TestMVSTMChunkLabels(t *testing.T) {
	srv, err := New(Config{Shards: 2, Engine: "mvstm", ProfileK: 16, ProfileSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mvstm.SetContentionProfiler(nil) })
	r := srv.Router()
	var ops []Op
	for i := 0; i < 200; i++ {
		ops = append(ops, Op{Kind: "put", Key: fmt.Sprintf("h%03d", i), Value: "0"})
	}
	if _, err := r.Batch(ops); err != nil {
		t.Fatal(err)
	}
	// The last key sits in a chunk an ascending insert created, so its
	// label carries a non-empty lo.
	key := "h199"
	s := r.ShardFor(key)
	b := r.shards[s].(*mvstmBackend)
	dir := b.dir.Load()
	c := dir[locate(dir, key)]
	if c.lo == "" {
		t.Fatalf("%q is in the first chunk; the preload did not split", key)
	}
	// Read the chunk, let a put to it commit, then write: the commit
	// fails validation on exactly that chunk Var.
	first := true
	if err := mvstm.Atomically(func(tx *mvstm.Tx) error {
		kvs := c.v.Get(tx)
		if first {
			first = false
			done := make(chan error)
			go func() {
				_, err := b.Apply([]Op{{Kind: "add", Key: key, Delta: 1}})
				done <- err
			}()
			if err := <-done; err != nil {
				return err
			}
		}
		c.v.Set(tx, kvs)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats struct {
		HotKeys []telemetry.Entry `json:"hot_keys"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("shard%d.chunk@%s", s, c.lo)
	var labels []string
	for _, e := range stats.HotKeys {
		labels = append(labels, e.Label)
		if !strings.HasPrefix(e.Label, fmt.Sprintf("shard%d.", s)) {
			t.Errorf("hot key %+v is not a labeled shard%d unit", e, s)
		}
	}
	if !slices.Contains(labels, want) {
		t.Fatalf("hot keys %v do not name %q", labels, want)
	}
}

// benchBackend preloads a backend in the kv-txn shape: 16,384 keys in
// 256 groups of 64, each holding 100.
func benchBackend(b *testing.B, engine string) Backend {
	b.Helper()
	be := NewSTMBackend()
	if engine == "mvstm" {
		be = NewMVSTMBackend()
	}
	var ops []Op
	for g := 0; g < 256; g++ {
		for m := 0; m < 64; m++ {
			ops = append(ops, Op{Kind: "put", Key: fmt.Sprintf("g%03d/%02d", g, m), Value: "100"})
		}
	}
	for i := 0; i < len(ops); i += 1024 {
		if _, err := be.Apply(ops[i : i+1024]); err != nil {
			b.Fatal(err)
		}
	}
	return be
}

// BenchmarkBackendScan audits one 64-key group per op; the mvstm cells
// also report the snapshot reads each audit took.
func BenchmarkBackendScan(b *testing.B) {
	for _, engine := range []string{"stm", "mvstm"} {
		b.Run(engine, func(b *testing.B) {
			be := benchBackend(b, engine)
			bounds := make([]string, 257)
			for g := range bounds {
				bounds[g] = fmt.Sprintf("g%03d/", g)
			}
			b.ReportAllocs()
			m0 := mvstm.ReadStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := i * 37 % 256
				kvs, err := be.Scan(bounds[g], bounds[g+1], 0)
				if err != nil || len(kvs) != 64 {
					b.Fatalf("audit of group %d: %d keys, err %v", g, len(kvs), err)
				}
			}
			b.StopTimer()
			if engine == "mvstm" {
				b.ReportMetric(float64(mvstm.ReadStats().Sub(m0).SnapshotReads)/float64(b.N), "reads/op")
			}
		})
	}
}

// BenchmarkBackendApply commits one 4-key ±1 transfer batch inside a
// group per op.
func BenchmarkBackendApply(b *testing.B) {
	for _, engine := range []string{"stm", "mvstm"} {
		b.Run(engine, func(b *testing.B) {
			be := benchBackend(b, engine)
			batches := make([][]Op, 256)
			for g := range batches {
				for j, d := range []int64{-1, 1, -1, 1} {
					batches[g] = append(batches[g], Op{Kind: "add", Key: fmt.Sprintf("g%03d/%02d", g*37%256, (g+j*17)%64), Delta: d})
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := be.Apply(batches[i%256]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

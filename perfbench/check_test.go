package main

import (
	"encoding/json"
	"strconv"
	"testing"

	"repro/internal/server"
)

// auditBody is the /scan response of an audit of group g whose member
// values are vals.
func auditBody(t *testing.T, g int, keys []string, vals []int) []byte {
	t.Helper()
	kvs := make([]server.KV, len(keys))
	for i := range keys {
		kvs[i] = server.KV{Key: keys[i], Value: strconv.Itoa(vals[i])}
	}
	b, err := json.Marshal(scanResponse{KVs: kvs, Count: len(kvs)})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckerRejectsTornAuditAndDisorderedScan(t *testing.T) {
	const g = 7
	from, to := groupRange(g)
	audit := op{cls: clsScan, from: from, to: to, limit: groupSize, audit: true, want: groupSize, group: g}
	keys := make([]string, groupSize)
	vals := make([]int, groupSize)
	for m := range keys {
		keys[m], vals[m] = groupKey(g, m), initialBalance
	}
	if err := checkResponse("kv-txn", &audit, auditBody(t, g, keys, vals)); err != nil {
		t.Fatalf("consistent audit rejected: %v", err)
	}

	// Half of a transfer: one account debited, its partner not credited.
	torn := append([]int(nil), vals...)
	torn[3]--
	if err := checkResponse("kv-txn", &audit, auditBody(t, g, keys, torn)); err == nil {
		t.Error("torn audit accepted")
	}

	// Two keys swapped: the right keys and sum, in the wrong order.
	swapped := append([]string(nil), keys...)
	swapped[10], swapped[11] = swapped[11], swapped[10]
	if err := checkResponse("kv-txn", &audit, auditBody(t, g, swapped, vals)); err == nil {
		t.Error("out-of-order audit scan accepted")
	}

	// A kv-read scan out of order, and one that strays past its range.
	scan := op{cls: clsScan, from: readKey(100), to: readKey(100 + readScanSpan), limit: readScanLimit, base: 100, want: 3}
	read := func(idx ...int) []byte {
		kvs := make([]server.KV, len(idx))
		for i, k := range idx {
			kvs[i] = server.KV{Key: readKey(k), Value: strconv.Itoa(readValue(k))}
		}
		b, _ := json.Marshal(scanResponse{KVs: kvs, Count: len(kvs)})
		return b
	}
	if err := checkResponse("kv-read", &scan, read(100, 101, 102)); err != nil {
		t.Fatalf("in-order scan rejected: %v", err)
	}
	if err := checkResponse("kv-read", &scan, read(100, 102, 101)); err == nil {
		t.Error("out-of-order scan accepted")
	}
	if err := checkRange([]string{readKey(100), readKey(100 + readScanSpan)}, scan.from, scan.to, scan.limit); err == nil {
		t.Error("scan key past the range end accepted")
	}
}

func TestCheckerRejectsWrongValuesAndBatches(t *testing.T) {
	if err := checkReadValue(readKey(42), strconv.Itoa(readValue(43))); err == nil {
		t.Error("kv-read value of another key accepted")
	}
	if err := checkReadValue(readKey(42), strconv.Itoa(readValue(42)+17)); err != nil {
		t.Errorf("value a put could store rejected: %v", err)
	}
	ops := []server.Op{{Kind: "add", Key: "a", Delta: -1}, {Kind: "add", Key: "b", Delta: 1}}
	if err := checkBatch(ops, []server.OpResult{{Key: "a", Found: true, Value: "999"}}); err == nil {
		t.Error("batch with a missing result accepted")
	}
	if err := checkBatch(ops, []server.OpResult{{Key: "b", Found: true, Value: "1"}, {Key: "a", Found: true, Value: "1"}}); err == nil {
		t.Error("batch with results out of order accepted")
	}
}

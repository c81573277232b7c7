package main

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/server"
)

// checkRange rejects a scan result whose keys are not strictly
// increasing, fall outside [from, to) (an empty to is unbounded), or
// exceed limit (0 is unlimited).
func checkRange(keys []string, from, to string, limit int) error {
	if limit > 0 && len(keys) > limit {
		return fmt.Errorf("scan [%s, %s): %d keys, limit %d", from, to, len(keys), limit)
	}
	for i, k := range keys {
		if k < from || (to != "" && k >= to) {
			return fmt.Errorf("scan [%s, %s): key %q out of range", from, to, k)
		}
		if i > 0 && k <= keys[i-1] {
			return fmt.Errorf("scan [%s, %s): key %q after %q", from, to, k, keys[i-1])
		}
	}
	return nil
}

// checkAudit rejects a group audit that did not see the whole group or
// whose sum is not the conserved group total: a torn read of a transfer.
func checkAudit(g, n int, sum int64) error {
	if n != groupSize || sum != groupTotal {
		return fmt.Errorf("audit of group %d: %d keys summing to %d, want %d summing to %d", g, n, sum, groupSize, groupTotal)
	}
	return nil
}

// checkReadValue rejects a kv-read value that is not one this benchmark
// could have stored at key: the preload value or a put, both i*1000+r.
func checkReadValue(key, value string) error {
	i, err := strconv.Atoi(key[1:])
	if err != nil {
		return fmt.Errorf("key %q: not a kv-read key", key)
	}
	v, err := strconv.Atoi(value)
	if err != nil || v/1000 != i {
		return fmt.Errorf("key %q: value %q was never stored there", key, value)
	}
	return nil
}

func checkInt(key, value string) error {
	if _, err := strconv.ParseInt(value, 10, 64); err != nil {
		return fmt.Errorf("key %q: value %q is not an integer", key, value)
	}
	return nil
}

// checkBatch rejects a batch response without exactly one result per op,
// in order, or with a result its op could not have produced.
func checkBatch(ops []server.Op, res []server.OpResult) error {
	if len(res) != len(ops) {
		return fmt.Errorf("batch of %d ops: %d results", len(ops), len(res))
	}
	for i, o := range ops {
		r := res[i]
		if r.Key != o.Key || !r.Found {
			return fmt.Errorf("batch op %d on %q: result %+v", i, o.Key, r)
		}
		if o.Kind == "add" {
			if err := checkInt(r.Key, r.Value); err != nil {
				return err
			}
		} else if r.Value != o.Value {
			return fmt.Errorf("batch op %d on %q: stored %q, returned %q", i, o.Key, o.Value, r.Value)
		}
	}
	return nil
}

type getResponse struct {
	Key   string `json:"key"`
	Value string `json:"value"`
	Found bool   `json:"found"`
}

type scanResponse struct {
	KVs   []server.KV `json:"kvs"`
	Count int         `json:"count"`
}

type batchResponse struct {
	Results []server.OpResult `json:"results"`
}

type putResponse struct {
	OK bool `json:"ok"`
}

// checkResponse decodes the body of a served request and checks it
// against the request that produced it. Every key of both served
// workloads is preloaded and none is deleted, so every get finds its key.
func checkResponse(wl string, o *op, body []byte) error {
	valueOK := checkInt
	if wl == "kv-read" {
		valueOK = checkReadValue
	}
	switch o.cls {
	case clsGet:
		var g getResponse
		if err := json.Unmarshal(body, &g); err != nil {
			return fmt.Errorf("get %q: %v", o.key, err)
		}
		if g.Key != o.key || !g.Found {
			return fmt.Errorf("get %q: response %+v", o.key, g)
		}
		return valueOK(g.Key, g.Value)
	case clsScan:
		var s scanResponse
		if err := json.Unmarshal(body, &s); err != nil {
			return fmt.Errorf("scan %q: %v", o.from, err)
		}
		if s.Count != len(s.KVs) {
			return fmt.Errorf("scan %q: count %d for %d keys", o.from, s.Count, len(s.KVs))
		}
		keys := make([]string, len(s.KVs))
		var sum int64
		for i, kv := range s.KVs {
			keys[i] = kv.Key
			if err := valueOK(kv.Key, kv.Value); err != nil {
				return err
			}
			v, _ := strconv.ParseInt(kv.Value, 10, 64) // checked by valueOK
			sum += v
		}
		if err := checkRange(keys, o.from, o.to, o.limit); err != nil {
			return err
		}
		if o.audit {
			return checkAudit(o.group, len(keys), sum)
		}
		if len(keys) != o.want {
			return fmt.Errorf("scan from %q: %d keys, want %d", o.from, len(keys), o.want)
		}
		for j, k := range keys {
			if k != readKey(o.base+j) {
				return fmt.Errorf("scan from %q: key %d is %q, want %q", o.from, j, k, readKey(o.base+j))
			}
		}
		return nil
	default:
		if o.path == "/put" {
			var p putResponse
			if err := json.Unmarshal(body, &p); err != nil || !p.OK {
				return fmt.Errorf("put %q: response %q", o.batch[0].Key, body)
			}
			return nil
		}
		var b batchResponse
		if err := json.Unmarshal(body, &b); err != nil {
			return fmt.Errorf("batch: %v", err)
		}
		return checkBatch(o.batch, b.Results)
	}
}

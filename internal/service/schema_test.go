package service

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSolveRequest throws arbitrary bodies at the repro-solve/v1
// request decoder (decodeStrict + Validate). The invariants: no panic;
// a request that passes Validate survives SpecCell and everything the
// server derives from it (spec re-validation, the identity record, the
// request ID); and it re-encodes to a body that validates again under
// the same request ID.
func FuzzSolveRequest(f *testing.F) {
	spec := killReplaySpec()
	for _, cell := range spec.Cells()[:3] {
		req := NewSolveRequest(&spec, cell, 1)
		body, _ := json.Marshal(req)
		f.Add(body)
	}
	f.Add([]byte(`{"schema":"repro-solve/v1","solver":"cg","precond":"jacobi","problem":"poisson","ranks":2,"grid":8,"tol":1e-6,"max_iter":10}`))
	f.Add([]byte(`{"schema":"repro-solve/v1","solver":"pcg","problem":"poisson","ranks":2,"grid":8,"tol":1e-6,"max_iter":10,"rep":9223372036854775807}`))
	f.Add([]byte(`{"schema":"repro-solve/v1","bogus":1}`))
	f.Add([]byte(`{"schema":"repro-solve/v0"} trailing`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SolveRequest
		if err := decodeStrict(bytes.NewReader(data), &req); err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			return
		}
		spec, cell := req.SpecCell()
		if err := spec.Validate(); err != nil {
			t.Fatalf("validated request yields an invalid spec: %v", err)
		}
		if rec := cell.Record(&spec, req.Rep); rec.Key != cell.RunKey(req.Rep) {
			t.Fatalf("record key %q, want %q", rec.Key, cell.RunKey(req.Rep))
		}
		id := RequestID(&req)
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var again SolveRequest
		if err := decodeStrict(bytes.NewReader(body), &again); err != nil {
			t.Fatalf("re-encoded request does not decode: %v\n%s", err, body)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("re-encoded request does not validate: %v\n%s", err, body)
		}
		if RequestID(&again) != id {
			t.Errorf("request ID changed across a re-encode: %s vs %s", id, RequestID(&again))
		}
	})
}

package serve

import (
	"context"
	"encoding/json"

	"repro/internal/core"
	"repro/internal/elfx"
)

// bulkInfer is the serve daemon's bulkq.InferFunc: one binary through
// the same substrate as /v1/infer — result-cache probe first, then the
// shared inferActive call (per-binary timeout/retry fault isolation and
// panic containment), then a cache fill so later interactive requests for
// the same image hit warm. Bulk work bypasses admission control on
// purpose: the bulkq worker budget (plus its Yield hook watching the
// admission queue) is the bulk path's own, stricter admission.
func (s *Server) bulkInfer(ctx context.Context, image []byte) (json.RawMessage, string, int, error) {
	active := s.registry.Active()
	key := imageKey(image, active.Fingerprint)
	if vars, ok := s.cache.get(key); ok {
		return marshalVarRecords(vars), active.Fingerprint, 0, nil
	}
	bin, err := elfx.Read(image)
	if err != nil {
		return nil, active.Fingerprint, 1, err
	}
	res, m := s.inferActive(ctx, bin)
	if res.Err != nil {
		return nil, m.Fingerprint, res.Attempts, res.Err
	}
	s.cache.put(imageKey(image, m.Fingerprint), res.Vars)
	return marshalVarRecords(res.Vars), m.Fingerprint, res.Attempts, nil
}

// toVarRecords renders inferred variables in the wire schema.
func toVarRecords(vars []core.InferredVar) []VarRecord {
	recs := make([]VarRecord, len(vars))
	for i, v := range vars {
		recs[i] = VarRecord{
			FuncLow: v.FuncLow,
			Slot:    v.Slot,
			Global:  v.Global,
			Size:    v.Size,
			NumVUCs: v.NumVUCs,
			Class:   v.Class.String(),
		}
	}
	return recs
}

// marshalVarRecords is toVarRecords as raw JSON — the form bulkq stores
// in its journal and streams in results lines.
func marshalVarRecords(vars []core.InferredVar) json.RawMessage {
	raw, err := json.Marshal(toVarRecords(vars))
	if err != nil {
		// []VarRecord cannot fail to marshal; keep the signature honest.
		return json.RawMessage("[]")
	}
	return raw
}

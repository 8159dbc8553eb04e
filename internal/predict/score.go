package predict

import (
	"repro/internal/ir"
	"repro/internal/trace"
)

// StaticScore folds a fixed per-site prediction vector over a branch
// stream: the replay equivalent of annotating a program clone and
// measuring it live, since annotation only sets Term.Pred and leaves the
// branch stream untouched. Sites beyond the vector and sites predicted
// PredNone are ignored. It is order-insensitive, so it shards across
// partitioned replay.
type StaticScore struct {
	Preds []ir.Prediction
	// Predicted counts events whose site carries a prediction;
	// Mispredicted those where the prediction missed.
	Predicted    uint64
	Mispredicted uint64
}

var _ trace.Sharded = (*StaticScore)(nil)

// RecordBranch implements trace.Collector.
func (s *StaticScore) RecordBranch(site int32, taken bool) { s.RecordRun(site, taken, 1) }

// RecordRun implements trace.Collector.
func (s *StaticScore) RecordRun(site int32, taken bool, n uint64) {
	if int(site) >= len(s.Preds) {
		return
	}
	p := s.Preds[site]
	if p == ir.PredNone {
		return
	}
	s.Predicted += n
	if (p == ir.PredTaken) != taken {
		s.Mispredicted += n
	}
}

// NewShard implements trace.Sharded: shards share the (read-only)
// prediction vector and accumulate their own counters.
func (s *StaticScore) NewShard() trace.Collector { return &StaticScore{Preds: s.Preds} }

// Merge implements trace.Sharded.
func (s *StaticScore) Merge(shard trace.Collector) {
	o := shard.(*StaticScore)
	s.Predicted += o.Predicted
	s.Mispredicted += o.Mispredicted
}

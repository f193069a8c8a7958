package dsidx

import (
	"fmt"

	"dsidx/internal/messi"
	"dsidx/internal/shard"
)

// ShardPolicy selects how a MESSI index routes series to shards.
type ShardPolicy int

const (
	// ShardRoundRobin routes series by arrival order (series i to shard
	// i mod N): near-equal shard sizes, content-independent — the default.
	ShardRoundRobin ShardPolicy = iota
	// ShardByHash routes each series by a hash of its values, so identical
	// series always land on the same shard regardless of arrival order.
	ShardByHash
)

func (p ShardPolicy) internal() (shard.Policy, error) {
	switch p {
	case ShardRoundRobin:
		return shard.RoundRobin{}, nil
	case ShardByHash:
		return shard.HashSeries{}, nil
	default:
		return nil, fmt.Errorf("dsidx: unknown ShardPolicy %d", p)
	}
}

// WithShards partitions a MESSI index into n shards (default 1; at most
// 256). More shards parallelize builds and merges coarsely and cap each
// tree's size; queries scatter-gather over all of them with one shared
// best-so-far, so answers are unchanged. LoadMESSI adopts the file's shard
// count; passing a different one explicitly is an error.
func WithShards(n int) Option { return func(o *options) { o.shards = n } }

// WithShardPolicy selects the routing policy of a MESSI index (default
// ShardRoundRobin). LoadMESSI adopts the file's recorded policy; passing a
// different one explicitly is an error.
func WithShardPolicy(p ShardPolicy) Option {
	return func(o *options) { o.shardPolicy, o.shardPolicySet = p, true }
}

// WithAllowPartial opts a MESSI index into best-effort answers when
// shards are unavailable (quarantined after repeated device failures, or
// failing mid-query): instead of the whole query failing with a typed
// shards-unavailable error, it answers from the shards still serving and
// reports the gap in SearchStats.UncoveredShards. Off by default — a
// partial answer is no longer guaranteed to be the exact nearest neighbor,
// so callers must opt in explicitly.
func WithAllowPartial(enabled bool) Option {
	return func(o *options) { o.allowPartial = enabled }
}

// shardOptions converts public options to the internal shard form. The
// policy stays nil when not explicitly chosen, so loading a saved index
// adopts the file's recorded policy instead of conflicting with it.
func (o options) shardOptions() (shard.Options, error) {
	var policy shard.Policy
	if o.shardPolicySet {
		var err error
		if policy, err = o.shardPolicy.internal(); err != nil {
			return shard.Options{}, err
		}
	}
	return shard.Options{
		Shards:       o.shards,
		Policy:       policy,
		AllowPartial: o.allowPartial,
		Options: messi.Options{
			Workers:        o.workers,
			MaxInFlight:    o.maxInFlight,
			MergeThreshold: o.mergeThreshold,
			ProbeLeaves:    o.probeLeaves,
			DisableLeafRaw: o.leafRawOff,
			AutoTune:       o.autoTune,
		},
	}, nil
}

// Sharded is an alias of MESSI, kept for callers written when a
// partitioned index was a type of its own.
type Sharded = MESSI

// NewSharded is an alias of NewMESSI.
func NewSharded(coll *Collection, opts ...Option) (*Sharded, error) { return NewMESSI(coll, opts...) }

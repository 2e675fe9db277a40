package cluster

import (
	"hash/fnv"
	"sort"
)

// Router orders the candidate workers for dispatching one batch: the
// coordinator tries the returned members front to back, so position 0
// is the preferred worker and the rest are the failover order. The
// candidates passed in are routable (up, or suspect when nothing is
// up); a router never needs to filter health itself. Implementations
// must be safe for concurrent use and must not mutate or retain the
// candidate slice.
type Router interface {
	// Pick orders candidates for the batch with the given stream key.
	Pick(streamKey string, candidates []*Member) []*Member
}

// AffinityRouter routes by stream-key affinity using rendezvous
// (highest-random-weight) hashing: each worker scores hash(streamKey,
// addr) and the batch goes to the highest score. The same stream key
// always lands on the same worker while membership is unchanged — so a
// batch's shared trace stream, and the memoized results of every cell
// that consumed it, live on one worker — while distinct stream keys
// spread uniformly across the cluster. When a worker dies, only its
// keys move (each to its second-highest scorer, which is exactly the
// failover order Pick returns), and they move back when it rejoins:
// affinity is rebuilt from membership alone, with no state to migrate.
type AffinityRouter struct{}

// score is the rendezvous weight of addr for streamKey.
func (*AffinityRouter) score(streamKey, addr string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(streamKey))
	h.Write([]byte{0})
	h.Write([]byte(addr))
	return h.Sum64()
}

// Pick orders candidates by descending rendezvous score.
func (r *AffinityRouter) Pick(streamKey string, candidates []*Member) []*Member {
	out := append([]*Member(nil), candidates...)
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := r.score(streamKey, out[i].Addr()), r.score(streamKey, out[j].Addr())
		if si != sj {
			return si > sj
		}
		return out[i].Addr() < out[j].Addr()
	})
	return out
}

package jobs

import "container/heap"

// batchItem is one schedulable unit in the priority queue: the cells of
// one job that consume one record stream (equal shift.Config.Stream),
// which a worker hands to Config.RunBatch together — or one cell, when it
// shares its stream with no other or comes back for a retry — with their
// estimated cost and a submission sequence number for deterministic FIFO
// tie-breaking among equal-cost items.
type batchItem struct {
	job   *Job
	cells []int
	cost  float64
	seq   int64
}

// batchHeap is a min-heap over (cost, seq): the scheduler always pops
// the cheapest estimated batch first (shortest-job-first), and among
// equal costs the earliest-submitted — so sampled probe cells overtake
// exact confirmations while equal work stays first-come-first-served.
// It implements container/heap.Interface; push and pop are heap.Push and
// heap.Pop without an item boxed in an interface on the way in or out.
type batchHeap []batchItem

// Len reports the number of queued batches (including stale entries for
// cancelled jobs, reaped lazily on pop).
func (h batchHeap) Len() int { return len(h) }

// Less orders by estimated cost, then submission order.
func (h batchHeap) Less(i, j int) bool {
	if h[i].cost != h[j].cost {
		return h[i].cost < h[j].cost
	}
	return h[i].seq < h[j].seq
}

// Swap exchanges two entries.
func (h batchHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// Push appends x (heap.Interface contract).
func (h *batchHeap) Push(x any) { *h = append(*h, x.(batchItem)) }

// Pop removes and returns the last entry (heap.Interface contract).
func (h *batchHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = batchItem{}
	*h = old[:n-1]
	return it
}

// push adds it, as heap.Push would.
func (h *batchHeap) push(it batchItem) {
	*h = append(*h, it)
	heap.Fix(h, len(*h)-1)
}

// pop removes and returns the cheapest item, as heap.Pop would.
func (h *batchHeap) pop() batchItem {
	old := *h
	n := len(old) - 1
	it := old[0]
	old[0], old[n] = old[n], batchItem{}
	*h = old[:n]
	if n > 0 {
		heap.Fix(h, 0)
	}
	return it
}

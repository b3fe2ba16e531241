package replacement

import (
	"container/heap"

	"repro/internal/oodb"
)

// OptimalHits computes Belady's MIN (the clairvoyant "optimal" policy the
// paper's related work cites from [5]) over an item reference sequence
// with a capacity of `capacity` equally-sized items: on a miss with a full
// cache, evict the resident item whose next reference is farthest in the
// future. It returns the hit and miss counts — the offline upper bound any
// online replacement policy is chasing.
//
// The implementation is O(n log n): next-use indices are precomputed and
// victims selected through a lazily-validated max-heap.
func OptimalHits(seq []oodb.Item, capacity int) (hits, misses int) {
	if capacity < 1 {
		panic("replacement: OptimalHits requires capacity >= 1")
	}
	n := len(seq)
	// nextUse[i] = index of the next reference to seq[i] after i (n if none).
	nextUse := make([]int, n)
	lastSeen := make(map[oodb.Item]int, capacity)
	for i := n - 1; i >= 0; i-- {
		if j, ok := lastSeen[seq[i]]; ok {
			nextUse[i] = j
		} else {
			nextUse[i] = n
		}
		lastSeen[seq[i]] = i
	}

	resident := make(map[oodb.Item]int, capacity) // item -> its current next use
	h := &nextUseHeap{}
	for i, it := range seq {
		if _, ok := resident[it]; ok {
			hits++
			resident[it] = nextUse[i]
			heap.Push(h, nextUseEntry{item: it, next: nextUse[i]})
			continue
		}
		misses++
		if len(resident) == capacity {
			// Pop until the head reflects a live (item, next) pair.
			for {
				top := (*h)[0]
				cur, ok := resident[top.item]
				if ok && cur == top.next {
					break
				}
				heap.Pop(h)
			}
			victim := heap.Pop(h).(nextUseEntry)
			delete(resident, victim.item)
		}
		resident[it] = nextUse[i]
		heap.Push(h, nextUseEntry{item: it, next: nextUse[i]})
	}
	return hits, misses
}

// nextUseEntry pairs an item with the reference index of its next use.
type nextUseEntry struct {
	item oodb.Item
	next int
}

// nextUseHeap is a max-heap on next-use distance with lazy deletion.
type nextUseHeap []nextUseEntry

func (h nextUseHeap) Len() int            { return len(h) }
func (h nextUseHeap) Less(i, j int) bool  { return h[i].next > h[j].next }
func (h nextUseHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nextUseHeap) Push(x interface{}) { *h = append(*h, x.(nextUseEntry)) }
func (h *nextUseHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

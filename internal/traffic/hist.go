package traffic

import (
	"math/bits"
	"sync/atomic"
)

// Histogram is a log2-bucketed latency histogram. Bucket i counts
// observations v with 2^(i-1) ≤ v < 2^i (bucket 0 counts v ≤ 0 and
// v == 1 lands in bucket 1). Powers of two make the histogram exact and
// deterministic — no float binning — so two replays of the same trace
// produce byte-identical histograms, and the serving checksums can fold
// bucket counts in. It records virtual cycles, not wall time: wall-clock
// latency is reported alongside but never checksummed.
type Histogram struct {
	Buckets [65]int64 `json:"buckets"`
	Count   int64     `json:"count"`
	Sum     int64     `json:"sum"`
}

// bucketOf maps a value to its bucket index: 1 + floor(log2(v)).
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.Buckets[bucketOf(v)]++
	h.Count++
	h.Sum += v
}

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1): the
// exclusive upper edge of the bucket containing the q-th observation.
// Bucket edges are exact powers of two, so the bound is deterministic
// and within 2× of the true value — tight enough for regression gating,
// stable enough for goldens.
func (h *Histogram) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(q * float64(h.Count-1))
	var seen int64
	for i, c := range h.Buckets {
		seen += c
		if seen > rank {
			if i == 0 {
				return 0
			}
			return 1 << uint(i) // exclusive upper edge of bucket i
		}
	}
	return 1<<63 - 1
}

// AtomicHistogram is the contention-free counterpart of Histogram: every
// bucket is an atomic counter, so concurrent observers never serialize
// behind a histogram lock. Log2 bucketing makes each Observe commutative
// (an add per bucket plus count and sum), so a snapshot taken after all
// observers quiesce is byte-identical to the serial Histogram over the
// same multiset of values — bucket counts do not depend on observation
// order. Snapshots taken mid-flight are internally consistent only
// per-field (count may momentarily lag a bucket add); quiesce first when
// exactness matters, as the serving drain does.
type AtomicHistogram struct {
	buckets [65]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value.
func (h *AtomicHistogram) Observe(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Snapshot materializes the counters into a plain Histogram.
func (h *AtomicHistogram) Snapshot() Histogram {
	var out Histogram
	for i := range h.buckets {
		out.Buckets[i] = h.buckets[i].Load()
	}
	out.Count = h.count.Load()
	out.Sum = h.sum.Load()
	return out
}

// Quantile reads the q-quantile bound directly from the live counters —
// see Histogram.Quantile for the bound's meaning. Loads are not mutually
// consistent under concurrent Observe, which is fine for its one use:
// advisory Retry-After hints.
func (h *AtomicHistogram) Quantile(q float64) int64 {
	s := h.Snapshot()
	return s.Quantile(q)
}

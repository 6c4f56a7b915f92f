package core

// Memory accounting. A likelihood-serving cache needs a price per dataset to
// evict against a byte budget, and that price has two parts: what the Shared
// itself keeps resident (compressed alignment, schedules, layout tables) and
// what a session over it holds (CLVs, scaling vectors, the sumtable,
// per-worker scratch) — the buffer set the Shared's pool keeps for the next
// session once one has been released. The session part dominates by orders of
// magnitude on real datasets — (taxa-2) CLV buffers of layout.Total() floats
// each — so a cache that priced only the shared half would badly undercount
// the capacity a cached dataset consumes once it serves traffic.

// MemoryFootprint itemizes the heap bytes of one Shared plus the estimated
// bytes of one session over it. All figures count the large flat buffers and
// tables; per-object Go runtime overhead (slice headers, map buckets,
// goroutine stacks) is not modelled.
type MemoryFootprint struct {
	// CompressedAlignment covers the pattern-compressed dataset: encoded tip
	// codes ([taxon][pattern] bytes), pattern weights, presence masks, and
	// taxon/partition names.
	CompressedAlignment int64 `json:"compressed_alignment"`
	// Schedules covers every pattern-to-worker schedule built so far (the
	// per-strategy holders are lazily populated; rebuilt measured schedules
	// replace their predecessor, so one per strategy is resident).
	Schedules int64 `json:"schedules"`
	// Layout covers the CLV/sumtable geometry descriptor (per-partition
	// offset and stride tables).
	Layout int64 `json:"layout"`
	// SessionCLVs is the dominant per-session term: (taxa-2) inner-node
	// buffers of layout.Total() float64s each, padding included.
	SessionCLVs int64 `json:"session_clvs"`
	// SessionScales is the per-inner-node int32 scaling-exponent vectors.
	SessionScales int64 `json:"session_scales"`
	// SessionSumtable is the branch-derivative workspace.
	SessionSumtable int64 `json:"session_sumtable"`
	// SessionScratch is the per-worker kernel scratch: two P-matrix buffers,
	// the exponential/derivative tables, and the two tip lookup tables per
	// worker (the tip tables are the large term: codes × cats × s floats).
	SessionScratch int64 `json:"session_scratch"`
}

// SharedBytes totals the session-independent (dataset-resident) terms.
func (f MemoryFootprint) SharedBytes() int64 {
	return f.CompressedAlignment + f.Schedules + f.Layout
}

// SessionBytes totals the estimated allocation of one session.
func (f MemoryFootprint) SessionBytes() int64 {
	return f.SessionCLVs + f.SessionScales + f.SessionSumtable + f.SessionScratch
}

// TotalBytes is SharedBytes plus one session's SessionBytes — the price of
// keeping a dataset resident and serving it.
func (f MemoryFootprint) TotalBytes() int64 {
	return f.SharedBytes() + f.SessionBytes()
}

// MemoryFootprint computes the shared state's resident bytes and the
// estimated per-session bytes. Safe for concurrent use; the schedule term
// reflects the holders built so far.
func (sh *Shared) MemoryFootprint() MemoryFootprint {
	var f MemoryFootprint
	for _, name := range sh.Data.TaxaNames {
		f.CompressedAlignment += int64(len(name))
	}
	for _, p := range sh.Data.Parts {
		f.CompressedAlignment += int64(len(p.Name)) +
			8*int64(len(p.Weights)) + int64(len(p.Present))
		for _, tips := range p.Tips {
			f.CompressedAlignment += int64(len(tips))
		}
	}
	sh.mu.Lock()
	f.Schedules = 24 * int64(len(sh.spans)) // Span{Lo, Hi int; Cost float64}
	for _, h := range sh.holders {          //plk:allow(maprange) commutative int accumulation; order-free
		s, _ := h.Current()
		f.Schedules += s.MemoryBytes()
	}
	sh.mu.Unlock()
	// Seven per-partition int slices in CLVLayout (base, patStride,
	// catStride, states, counts, sumBase) plus the schedule spans above.
	f.Layout = 8 * 7 * int64(len(sh.Data.Parts))

	nInner := int64(sh.Data.NumTaxa() - 2)
	f.SessionCLVs = nInner * 8 * int64(sh.layout.Total())
	f.SessionScales = nInner * 4 * int64(sh.Data.TotalPatterns)
	f.SessionSumtable = 8 * int64(sh.layout.SumTotal())
	perWorker := 2*sh.NumCats*sh.maxS*sh.maxS + // P-matrix pair
		3*sh.NumCats*sh.maxS + // exponential/derivative tables
		2*sh.maxCodes*sh.NumCats*sh.maxS + // tip lookup-table pair
		3*len(sh.Data.Parts) // eval + (d1,d2) partials
	f.SessionScratch = int64(sh.Threads) * 8 * int64(perWorker)
	return f
}

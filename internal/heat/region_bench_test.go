package heat

import (
	"testing"

	"colloid/internal/access"
	"colloid/internal/memsys"
	"colloid/internal/pages"
	"colloid/internal/stats"
	"colloid/internal/workloads"
)

// BenchmarkRegionBulkQueries times the pair of tracker queries a
// memtis-1m kmigrated quantum makes: one BytesByCount into MEMTIS's
// 257-bucket histogram, then one AppendHot of the alternate tier's pages
// at the hot threshold that histogram gives, capped at 8192. The
// region/64 tracker over 2^20 x 4 KiB pages is warmed first with an
// episode's worth of GUPS-shaped PEBS samples (16 s at MEMTIS's
// 20,000/s, a hot third drawing 90% of accesses). It reports
// allocations per pair, which must stay 0.
func BenchmarkRegionBulkQueries(b *testing.B) {
	const (
		n           = 1 << 20
		maxCount    = 256
		candCap     = 8192
		warmTouches = 16 * 20_000
	)
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	bytes := int64(n) * pages.BasePageBytes
	as, err := pages.NewAddressSpace(topo, bytes, pages.BasePageBytes)
	if err != nil {
		b.Fatal(err)
	}
	g := &workloads.GUPS{WorkingSetBytes: bytes, HotSetBytes: bytes / 3, HotProb: 0.9, ObjectBytes: 64, Cores: 15}
	if err := g.Install(as, stats.NewRNG(1)); err != nil {
		b.Fatal(err)
	}
	r := NewRegionTracker(maxCount, DefaultRegionPages, nil)
	for _, id := range access.NewSampler(as, stats.NewRNG(2)).SampleN(nil, warmTouches) {
		r.Touch(id)
	}
	v := as.LiveView()
	keep := func(id pages.PageID) bool { return v.Tier[id] == 1 }
	hist := make([]int64, maxCount+1)
	capacity := topo.Capacity(memsys.DefaultTier)
	var hot []pages.PageID
	quantum := func() {
		r.BytesByCount(hist, v)
		threshold, cum := uint32(1), int64(0)
		for c := maxCount; c >= 1; c-- {
			if cum += hist[c]; cum > capacity {
				threshold = uint32(c + 1)
				break
			}
		}
		hot = r.AppendHot(hot[:0], threshold, keep, candCap)
	}
	quantum()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quantum()
	}
}

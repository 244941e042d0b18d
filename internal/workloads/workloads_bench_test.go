package workloads

import (
	"testing"

	"colloid/internal/access"
	"colloid/internal/memsys"
	"colloid/internal/pages"
	"colloid/internal/stats"
)

// BenchmarkShiftHotSet times one hot-set shift on 2^20 x 4 KiB pages
// (a random hot third, as in perfbench's memtis-1m) together with the
// sampler rebuild it forces at the next SampleN, and reports
// allocations per shift. The hot set is installed and the sampler built
// before the timer starts.
func BenchmarkShiftHotSet(b *testing.B) {
	const n = 1 << 20
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	bytes := int64(n) * pages.BasePageBytes
	as, err := pages.NewAddressSpace(topo, bytes, pages.BasePageBytes)
	if err != nil {
		b.Fatal(err)
	}
	g := &GUPS{WorkingSetBytes: bytes, HotSetBytes: bytes / 3, HotProb: 0.9, ObjectBytes: 64, Cores: 15}
	rng := stats.NewRNG(1)
	if err := g.Install(as, rng); err != nil {
		b.Fatal(err)
	}
	s := access.NewSampler(as, stats.NewRNG(2))
	buf := s.SampleN(nil, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ShiftHotSet(as, rng)
		buf = s.SampleN(buf[:0], 1)
	}
}

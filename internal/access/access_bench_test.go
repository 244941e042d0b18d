package access

import (
	"strconv"
	"testing"

	"colloid/internal/memsys"
	"colloid/internal/pages"
	"colloid/internal/stats"
	"colloid/internal/workloads"
)

// sampleSink keeps the benchmarked Sample calls from being optimised
// away.
var sampleSink pages.PageID

// BenchmarkSampler times PEBS draws under GUPS weights (a random hot
// third takes 90% of accesses) at three space sizes: single Sample
// calls against SampleN over a reused buffer, in batches of 512. It
// reports ns per draw; the CDF is built before the timer starts.
func BenchmarkSampler(b *testing.B) {
	const batch = 512
	for _, n := range []int{1 << 11, 1 << 15, 1 << 20} {
		topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
		bytes := int64(n) * pages.BasePageBytes
		as, err := pages.NewAddressSpace(topo, bytes, pages.BasePageBytes)
		if err != nil {
			b.Fatal(err)
		}
		g := &workloads.GUPS{
			WorkingSetBytes: bytes,
			HotSetBytes:     bytes / 3,
			HotProb:         0.9,
			ObjectBytes:     64,
			Cores:           15,
		}
		if err := g.Install(as, stats.NewRNG(1)); err != nil {
			b.Fatal(err)
		}
		b.Run("Sample/pages="+strconv.Itoa(n), func(b *testing.B) {
			s := NewSampler(as, stats.NewRNG(2))
			s.Sample()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < batch; k++ {
					sampleSink = s.Sample()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/draw")
		})
		b.Run("SampleN/pages="+strconv.Itoa(n), func(b *testing.B) {
			s := NewSampler(as, stats.NewRNG(2))
			buf := s.SampleN(nil, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = s.SampleN(buf[:0], batch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/draw")
		})
	}
}

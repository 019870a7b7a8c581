package trace

import "testing"

var benchSink uint64

// BenchmarkGeneratorNext measures the generator layer in isolation, one
// workload per shape: a Zipf hot set (hmmer), a stencil sweep with a hot
// set (GemsFDTD) and uniform pointer chasing (mcf).
func BenchmarkGeneratorNext(b *testing.B) {
	for _, name := range []string{"hmmer", "GemsFDTD", "mcf"} {
		b.Run(name, func(b *testing.B) {
			w, err := ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			g := w.New(1)
			b.ReportAllocs()
			b.ResetTimer()
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += g.Next().Addr
			}
			benchSink = sink
		})
	}
}

package serv

import (
	"runtime"
	"testing"
	"time"
)

// BenchmarkPrepare times one-experiment submissions from Submit until
// done, nearly all of it preparation, on the serve-campaign spec: a
// two-worker fork campaign of test-scale pi. "identical" submits one spec
// every time, so every submission after the first finds its root cached;
// "distinct" gives each submission its own watchdog, so every one
// prepares a root. After the loop it reports the live heap, which holds
// what the service keeps of finished campaigns.
//
//	go test -run '^$' -bench Prepare -benchtime 40x -count 5 ./internal/serv
func BenchmarkPrepare(b *testing.B) {
	for _, tc := range []struct {
		name     string
		distinct bool
	}{{"identical", false}, {"distinct", true}} {
		b.Run(tc.name, func(b *testing.B) {
			s, err := New(Config{Dir: b.TempDir(), Slots: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Shutdown(time.Second)
			spec := CampaignSpec{Workload: "pi", N: 1, Seed: 1, Workers: 2, Fork: true, MaxInsts: 1 << 24}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tc.distinct {
					spec.MaxInsts++
				}
				id, err := s.Submit(spec)
				if err != nil {
					b.Fatal(err)
				}
				if !s.Wait(id, waitBound) {
					b.Fatalf("campaign %s did not finish", id)
				}
			}
			b.StopTimer()
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "heap-MiB")
		})
	}
}

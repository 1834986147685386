package apps

import (
	"sync"
	"testing"

	"logr/internal/core"
	"logr/internal/workload"
)

// driftBench is a K = 8 summary of a 300k-query USBank log (universe 870,
// 1,712 distinct vectors), built once per test binary.
var driftBench struct {
	sync.Once
	log *core.Log
	mix core.Mixture
}

func driftBenchState(b *testing.B) (*core.Log, core.Mixture) {
	driftBench.Do(func() {
		res := workload.Encode(workload.USBank(workload.USBankConfig{TotalQueries: 300000, DistinctTarget: 1712, Seed: 1}), workload.EncodeOptions{})
		c, err := core.Compress(res.Log, core.CompressOptions{K: 8, Seed: 1})
		if err != nil {
			panic(err)
		}
		driftBench.log, driftBench.mix = res.Log, c.Mixture
	})
	b.ResetTimer()
	return driftBench.log, driftBench.mix
}

// detSink and reportSink keep the measured calls from being optimized away.
var (
	detSink    *DriftDetector
	reportSink DriftReport
)

// BenchmarkNewDriftDetector measures building and calibrating a detector.
func BenchmarkNewDriftDetector(b *testing.B) {
	_, mix := driftBenchState(b)
	for range b.N {
		detSink = NewDriftDetector(mix)
	}
}

// BenchmarkDriftCheck measures scoring every distinct vector of the
// baseline's own log.
func BenchmarkDriftCheck(b *testing.B) {
	l, mix := driftBenchState(b)
	det := NewDriftDetector(mix)
	b.ResetTimer()
	for range b.N {
		reportSink = det.Check(l, 0)
	}
}

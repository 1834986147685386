package mining

import (
	"testing"

	"logr/internal/core"
)

func BenchmarkLaserlight(b *testing.B) {
	d := plantedLabeled(1, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Laserlight(d, LaserlightOptions{Patterns: 10, Seed: int64(i)})
	}
}

func BenchmarkMTV(b *testing.B) {
	l := plantedLog(1, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MTV(l, MTVOptions{Patterns: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrequentItemsets(b *testing.B) {
	l := plantedLog(2, 4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FrequentItemsets(l, 0.05, 4, 500)
	}
}

func BenchmarkLaserlightEstimate(b *testing.B) {
	d := plantedLabeled(3, 1000)
	m := Laserlight(d, LaserlightOptions{Patterns: 10, Seed: 1})
	q := d.Vector(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Estimate(q)
	}
}

func BenchmarkAppendixD3Weights(b *testing.B) {
	l := plantedLog(4, 2000)
	parts := []*core.Log{l, l, l}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = AppendixD3Weights(parts)
	}
}

func BenchmarkMushroomGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Mushroom(MushroomConfig{Rows: 8124, Seed: int64(i + 1)})
	}
}

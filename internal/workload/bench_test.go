package workload

import "testing"

func BenchmarkPocketDataGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		PocketData(PocketDataConfig{TotalQueries: 10000, DistinctTarget: 605, Seed: int64(i + 1)})
	}
}

func BenchmarkUSBankGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		USBank(USBankConfig{TotalQueries: 10000, DistinctTarget: 500, ConstantVariants: 5, Seed: int64(i + 1)})
	}
}

func BenchmarkEncodePipeline(b *testing.B) {
	entries := PocketData(PocketDataConfig{TotalQueries: 50000, DistinctTarget: 605, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Encode(entries, EncodeOptions{})
	}
}

func BenchmarkEncoderIncremental(b *testing.B) {
	entries := PocketData(PocketDataConfig{TotalQueries: 50000, DistinctTarget: 605, Seed: 1})
	enc := NewEncoder(EncodeOptions{})
	for _, e := range entries {
		enc.Add(e)
	}
	window := PocketData(PocketDataConfig{TotalQueries: 1000, DistinctTarget: 605, Seed: 1})[:50]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range window {
			enc.Add(e)
		}
		_ = enc.Result()
	}
}

package sqlparser_test

import (
	"testing"

	"logr/internal/sqlparser"
	"logr/internal/workload"
)

// BenchmarkFingerprint lexes the statements of a bank log, literals and
// noise included, into their literal-blind fingerprints: the per-statement
// work the encoder does for every raw statement it has not seen.
func BenchmarkFingerprint(b *testing.B) {
	var stmts []string
	for _, e := range workload.USBank(workload.USBankConfig{TotalQueries: 100000, ConstantVariants: 110, NoiseEntries: 300, Seed: 1}) {
		stmts = append(stmts, e.SQL)
	}
	var fp []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp, _ = sqlparser.Fingerprint(fp[:0], stmts[i%len(stmts)], false)
	}
}

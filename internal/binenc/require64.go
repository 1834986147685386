//go:build 386 || arm || mips || mipsle

package binenc

// logr needs a 64-bit int: a summary promises counts up to 2^50 queries
// (core.MaxCount) and the decoders bound fields by MaxInt = 2^62, neither
// of which fits a 32-bit int. This file is built only on the 32-bit
// architectures, where the undefined name below stops the build with an
// error that says so.
var _ = logr_requires_a_64_bit_architecture

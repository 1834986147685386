package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"

	"logr/internal/core"
	"logr/internal/workload"
)

// codecDigest hashes a sequence of byte strings, each length-prefixed so
// that moving a byte from one string to the next changes the digest.
func codecDigest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(p))))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestCodecGoldenDigests pins every binary artifact the store writes for a
// fixed stream: the WAL payload of each operation, the checkpoint heads and
// the admission log of three incremental checkpoints, every sealed
// segment's sub-log and a K = 8 LGRS summary of the snapshot. Each payload
// must also decode back to the op it was written from, and a store
// restored from the last checkpoint must write the same bytes again. A
// digest that moves means an on-disk or on-wire format moved.
func TestCodecGoldenDigests(t *testing.T) {
	bank := workload.USBank(workload.USBankConfig{TotalQueries: 3000, DistinctTarget: 120, ConstantVariants: 4, NoiseEntries: 40, Seed: 9})
	pocket := workload.PocketData(workload.PocketDataConfig{TotalQueries: 2000, DistinctTarget: 150, Seed: 10})
	script := []walOp{
		{kind: opEntries, entries: bank[:len(bank)/2]},
		{kind: opSeal},
		{kind: opEntries, entries: pocket},
		{kind: opSeal},
		{kind: opEntries, entries: streamEntries(80, 7)},
		{kind: opSeal},
		{kind: opCompact, arg: 2500},
		{kind: opEntries, entries: bank[len(bank)/2:]},
		{kind: opSeal},
		{kind: opDrop, arg: 1},
		{kind: opEntries, entries: streamEntries(30, 300)}, // active tail
	}
	opts := Options{Encode: workload.EncodeOptions{Parallelism: 1}}
	s := New(opts)
	var payloads [][]byte
	var heads [][]byte
	var log []byte
	var adm admission
	for i, op := range script {
		var p []byte
		switch op.kind {
		case opEntries:
			p = encodeEntriesOp(op.entries)
		case opSeal:
			p = encodeSealOp()
		case opDrop:
			p = encodeDropOp(op.arg)
		case opCompact:
			p = encodeCompactOp(op.arg)
		}
		payloads = append(payloads, p)
		dec, err := decodeOp(p)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if dec.kind != op.kind || dec.arg != op.arg || !reflect.DeepEqual(dec.entries, op.entries) {
			t.Fatalf("op %d decodes to a different op", i)
		}
		switch op.kind {
		case opEntries:
			if err := s.Append(op.entries); err != nil {
				t.Fatal(err)
			}
		case opSeal:
			s.Seal()
		case opDrop:
			s.DropBefore(op.arg)
		case opCompact:
			s.Compact(op.arg)
		}
		if i%4 == 3 || i == len(script)-1 {
			var head []byte
			head, log, adm = checkpointImage(int64(100*i), s, adm, log)
			heads = append(heads, head)
		}
	}
	if len(s.segs) < 2 || s.segs[0].meta.EndID-s.segs[0].meta.ID < 2 {
		t.Fatalf("the script left segments %v; the test wants a compacted one among several", s.Segments())
	}
	var subs [][]byte
	for _, sg := range s.segs {
		subs = append(subs, sg.sub)
	}
	c, err := core.Compress(s.Snapshot().Log, core.CompressOptions{K: 8, Seed: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var lgrs bytes.Buffer
	if err := core.WriteSummaryBinary(&lgrs, c.Mixture, s.Book()); err != nil {
		t.Fatal(err)
	}

	got := map[string]string{
		"wal":      codecDigest(payloads...),
		"heads":    codecDigest(heads...),
		"admlog":   codecDigest(log),
		"sublogs":  codecDigest(subs...),
		"lgrs-k8":  codecDigest(lgrs.Bytes()),
		"segments": codecDigest([]byte(storeDigest(s))),
	}
	want := map[string]string{
		"wal":      "9617436096861a5c",
		"heads":    "8b6d07a38c637b45",
		"admlog":   "ab812d52db03110a",
		"sublogs":  "124a2234a2c75709",
		"lgrs-k8":  "55c72ded3b3d8c32",
		"segments": "85531a1c194f1d2c",
	}
	for name, d := range got {
		if d != want[name] {
			t.Errorf("%s: digest %s, want %s", name, d, want[name])
		}
	}

	// the last checkpoint restores to a store that writes the same state
	mem, _, err := restoreImage(heads[len(heads)-1], log, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, state, _ := s.checkpointState(workload.StateMark{})
	if _, again, _ := mem.checkpointState(workload.StateMark{}); !bytes.Equal(again, state) {
		t.Fatal("a restored store writes a different checkpoint state")
	}
	var again bytes.Buffer
	m, book, err := core.ReadSummary(bytes.NewReader(lgrs.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.WriteSummaryBinary(&again, m, book); err != nil || !bytes.Equal(again.Bytes(), lgrs.Bytes()) {
		t.Fatalf("the LGRS artifact does not re-write byte for byte (%v)", err)
	}
}

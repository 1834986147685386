package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"logr/internal/cluster"
	"logr/internal/core"
	"logr/internal/feature"
	"logr/internal/vfs"
)

// Segment artifact files. Sealing a segment writes one self-contained
// artifact to <dir>/segments/: the segment's descriptor, its seal-time
// summary — both the shippable LGRS blob (summary + codebook, CRC-trailed
// by the codec itself) and the cluster labels that let recovery rebuild the
// in-memory summary cache (mixture, partition and Reproduction Error are
// deterministic functions of the sub-log and its labels) — and the
// sub-log's packed vectors. The whole file carries a CRC32 trailer.
//
// Artifacts are caches and exports, never the system of record: the WAL
// replay rebuilds every segment's sub-log from raw entries, and an
// artifact is only honored when its descriptor and vectors match the
// replayed segment exactly. A missing, stale or corrupt artifact merely
// costs a lazy re-clustering.
//
//	"LGSG" | version u8
//	id, endID                                    (uvarint)
//	startEpoch, epoch: universe, total, distinct (uvarint ×3 each)
//	queries, distinct                            (uvarint)
//	sumKeyLen | sumKey                           (uvarint + bytes; 0 = no summary)
//	[sumKey != ""] K, distinct × label           (uvarint)
//	[sumKey != ""] sumLen | LGRS blob            (uvarint + bytes)
//	universe, distinct × (mult, support, support × index-delta)
//	crc32 u32le                                  (IEEE, over every preceding byte)

const (
	segMagic   = "LGSG"
	segVersion = 1
	segDirName = "segments"
	// maxSegFieldValue caps every decoded uvarint: far above any legitimate
	// count, far below where int(v) would overflow negative.
	maxSegFieldValue = 1 << 62
)

// segFileName names a segment artifact by its seal span, the stable range
// coordinate that survives compaction widening.
func segFileName(meta SegmentMeta) string {
	return fmt.Sprintf("seg-%08d-%08d.seg", meta.ID, meta.EndID)
}

// writeSegFile writes the artifact for sg. sum/sumKey may be nil/"" for a
// summary-less artifact (compaction products persist their sub-log only and
// re-cluster lazily). The write lands atomically — temp file, fsync,
// rename — so a crash mid-write leaves no half artifact under the live
// name and a rename that was never fsynced cannot surface torn.
func writeSegFile(fsys vfs.FS, dir string, sg *Segment, sumKey string, sum *core.Compressed, book *feature.Codebook) error {
	var buf bytes.Buffer
	buf.WriteString(segMagic)
	buf.WriteByte(segVersion)
	var tmp [binary.MaxVarintLen64]byte
	put := func(v int) {
		n := binary.PutUvarint(tmp[:], uint64(v))
		buf.Write(tmp[:n])
	}
	meta := sg.meta
	put(meta.ID)
	put(meta.EndID)
	put(meta.StartEpoch.Universe)
	put(meta.StartEpoch.TotalQueries)
	put(meta.StartEpoch.Distinct)
	put(meta.Epoch.Universe)
	put(meta.Epoch.TotalQueries)
	put(meta.Epoch.Distinct)
	put(meta.Queries)
	put(meta.Distinct)
	put(len(sumKey))
	buf.WriteString(sumKey)
	if sumKey != "" {
		put(sum.Assignment.K)
		if len(sum.Assignment.Labels) != sg.log.Distinct() {
			return fmt.Errorf("store: segment [%d,%d) summary labels %d != distinct %d",
				meta.ID, meta.EndID, len(sum.Assignment.Labels), sg.log.Distinct())
		}
		for _, lbl := range sum.Assignment.Labels {
			put(lbl)
		}
		var blob bytes.Buffer
		if err := core.WriteSummaryBinary(&blob, sum.Mixture, book); err != nil {
			return err
		}
		put(blob.Len())
		buf.Write(blob.Bytes())
	}
	l := sg.log
	put(l.Universe())
	for i := 0; i < l.Distinct(); i++ {
		put(l.Multiplicity(i))
		v := l.Vector(i)
		put(v.Count())
		prev := 0
		v.ForEach(func(b int) {
			put(b - prev)
			prev = b
		})
	}
	var word [4]byte
	binary.LittleEndian.PutUint32(word[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(word[:])

	return vfs.WriteFileAtomic(fsys, filepath.Join(dir, segFileName(meta)), buf.Bytes(), 0o644)
}

// readSegFile loads and validates the artifact for sg against the
// replayed segment. It returns the cached summary's options key and
// assignment when the artifact carries one; ok reports whether the artifact
// is present, intact, and describes exactly this segment.
func readSegFile(fsys vfs.FS, dir string, sg *Segment) (sumKey string, asg cluster.Assignment, ok bool) {
	data, err := vfs.ReadFile(fsys, filepath.Join(dir, segFileName(sg.meta)))
	if err != nil {
		return "", cluster.Assignment{}, false
	}
	if len(data) < len(segMagic)+1+4 || string(data[:len(segMagic)]) != segMagic {
		return "", cluster.Assignment{}, false
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return "", cluster.Assignment{}, false
	}
	if body[len(segMagic)] != segVersion {
		return "", cluster.Assignment{}, false
	}
	cur := body[len(segMagic)+1:]
	bad := false
	get := func() int {
		v, n := binary.Uvarint(cur)
		if n <= 0 || v > maxSegFieldValue {
			// an overflowing varint would wrap negative through int(v) and
			// sail past the slice-length guards below
			bad = true
			return 0
		}
		cur = cur[n:]
		return int(v)
	}
	meta := sg.meta
	fields := []int{
		meta.ID, meta.EndID,
		meta.StartEpoch.Universe, meta.StartEpoch.TotalQueries, meta.StartEpoch.Distinct,
		meta.Epoch.Universe, meta.Epoch.TotalQueries, meta.Epoch.Distinct,
		meta.Queries, meta.Distinct,
	}
	for _, want := range fields {
		if get() != want || bad {
			return "", cluster.Assignment{}, false
		}
	}
	keyLen := get()
	if bad || keyLen > len(cur) {
		return "", cluster.Assignment{}, false
	}
	sumKey = string(cur[:keyLen])
	cur = cur[keyLen:]
	l := sg.log
	if sumKey != "" {
		k := get()
		if bad || k <= 0 {
			return "", cluster.Assignment{}, false
		}
		labels := make([]int, l.Distinct())
		for i := range labels {
			labels[i] = get()
			if bad || labels[i] >= k {
				return "", cluster.Assignment{}, false
			}
		}
		blobLen := get()
		if bad || blobLen > len(cur) {
			return "", cluster.Assignment{}, false
		}
		// the LGRS blob is the shippable export; recovery rebuilds the cache
		// from the labels instead, so only skip over it here
		cur = cur[blobLen:]
		asg = cluster.Assignment{Labels: labels, K: k}
	}
	// the sub-log must match the replayed segment vector for vector —
	// otherwise the labels describe some other data and the artifact is
	// stale
	if get() != l.Universe() || bad {
		return "", cluster.Assignment{}, false
	}
	for i := 0; i < l.Distinct(); i++ {
		if get() != l.Multiplicity(i) || bad {
			return "", cluster.Assignment{}, false
		}
		v := l.Vector(i)
		support := get()
		if bad || support != v.Count() {
			return "", cluster.Assignment{}, false
		}
		prev := 0
		for j := 0; j < support; j++ {
			prev += get()
			if bad || prev >= l.Universe() || !v.Get(prev) {
				return "", cluster.Assignment{}, false
			}
		}
	}
	if len(cur) != 0 {
		return "", cluster.Assignment{}, false
	}
	return sumKey, asg, true
}

// readSegSummaryBlob extracts the shippable LGRS blob from an artifact
// file, for callers that want the seal-time summary without the store (the
// daemon's /summary endpoint reads live state instead; this exists for
// offline inspection and tests).
func readSegSummaryBlob(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(segMagic)+1+4 || string(data[:len(segMagic)]) != segMagic {
		return nil, fmt.Errorf("store: %s is not a segment artifact", path)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("store: %s failed its CRC check", path)
	}
	cur := body[len(segMagic)+1:]
	bad := false
	get := func() int {
		v, n := binary.Uvarint(cur)
		if n <= 0 || v > maxSegFieldValue {
			bad = true
			return 0
		}
		cur = cur[n:]
		return int(v)
	}
	distinct := 0
	for i := 0; i < 10; i++ {
		v := get()
		if i == 9 {
			distinct = v
		}
	}
	keyLen := get()
	if bad || keyLen > len(cur) {
		return nil, fmt.Errorf("store: %s is truncated", path)
	}
	if keyLen == 0 {
		return nil, fmt.Errorf("store: %s carries no summary", path)
	}
	cur = cur[keyLen:]
	get() // K
	for i := 0; i < distinct; i++ {
		get()
	}
	blobLen := get()
	if bad || blobLen > len(cur) {
		return nil, fmt.Errorf("store: %s is truncated", path)
	}
	return append([]byte(nil), cur[:blobLen]...), nil
}

// rebuildSummary reconstructs the cached summary a never-crashed store
// would hold: mixture, partition and Reproduction Error are deterministic
// functions of the sub-log and the persisted assignment.
func rebuildSummary(l *core.Log, asg cluster.Assignment) (*core.Compressed, error) {
	mix, parts := core.BuildNaiveMixtureP(l, asg, 0)
	e, err := mix.ErrorP(parts, 0)
	if err != nil {
		return nil, err
	}
	return &core.Compressed{Mixture: mix, Assignment: asg, Parts: parts, Err: e}, nil
}

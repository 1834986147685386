package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"logr/internal/binenc"
	"logr/internal/feature"
)

// Persistence for compressed summaries. A LogR artifact on disk is the
// mixture encoding (per-cluster marginals) plus the codebook that maps
// feature indices back to SQL fragments — everything needed to answer
// workload statistics and render visualizations without the original log.
//
// WriteSummaryBinary writes the compact binary layout: a magic+version
// header, the codebook section, and each cluster's sparse marginals as
// varint-delta feature indices plus raw IEEE-754 bits. ReadSummary also
// reads the original JSON layout, which nothing writes any more; it
// detects the format from the first bytes.

// summaryFile is the on-disk JSON layout (versioned for forward evolution).
type summaryFile struct {
	Version  int             `json:"version"`
	Universe int             `json:"universe"`
	Total    int             `json:"total_queries"`
	Scheme   int             `json:"scheme"`
	Features []featureEntry  `json:"features"`
	Clusters []clusterRecord `json:"clusters"`
}

type featureEntry struct {
	Kind int    `json:"kind"`
	Text string `json:"text"`
}

type clusterRecord struct {
	Count int `json:"count"`
	// Sparse marginals: parallel arrays of feature index and probability.
	Index    []int     `json:"index"`
	Marginal []float64 `json:"marginal"`
}

// MaxCount bounds every query count a summary artifact may carry. Counts
// never size an allocation and may legitimately be huge for a
// heavy-traffic log, but below 2^50 a count survives the round trip
// through its stored marginal c/n exactly (snapCount). Ingest refuses a
// batch that would take a store past it, so every summary it serves can be
// saved and read back.
const MaxCount = 1 << 50

// snapCount returns the feature count a stored marginal of a cluster of n
// queries stands for: round(p·n). Writers store each marginal as c/n, so
// the snap recovers c exactly. A marginal outside [0, 1], or one below half
// a query (count 0: the feature would not be in the support), is not the
// ratio of any count and is rejected.
func snapCount(p float64, n int) (int, error) {
	if !(p >= 0 && p <= 1) {
		return 0, fmt.Errorf("marginal %v outside [0,1]", p)
	}
	c := int(math.Round(p * float64(n)))
	if c < 1 {
		return 0, fmt.Errorf("marginal %v, a count of 0 of its %d queries", p, n)
	}
	return c, nil
}

// binaryMagic opens every binary summary artifact; the byte after it is the
// format version.
const binaryMagic = "LGRS"

// binaryVersion is the current binary summary format. Version 2 appends a
// CRC32 (IEEE) trailer over every preceding byte — magic, version and body
// — so artifacts shipped over the network or stored on disk are
// integrity-checked on read. Version-1 artifacts (no trailer) still load.
const binaryVersion = 2

// WriteSummaryBinary serializes a mixture encoding with its codebook in the
// compact binary format, appended into one buffer and written at once:
//
//	"LGRS" | version u8
//	universe, total, scheme                 (uvarint)
//	codebook section                        (feature.Codebook.AppendSection)
//	clusterCount                            (uvarint)
//	clusterCount × (count uvarint,
//	                support index run       (binenc.AppendAscending),
//	                support × float64 marginal bits, little-endian)
//	crc32 u32le                             (IEEE, over every preceding byte)
//
// The codebook section holds the features below the mixture's universe:
// the codebook is append-only and may have grown past the summarized
// snapshot (appends after Compress, or a range summary ending before the
// newest segment); later features are not part of the artifact, and the
// restored summary reports probability 0 for them, same as the live one.
func WriteSummaryBinary(w io.Writer, m Mixture, book *feature.Codebook) error {
	if n := book.Size(); n < m.Universe {
		return fmt.Errorf("core: codebook has %d features for universe %d", n, m.Universe)
	}
	b := append([]byte(binaryMagic), binaryVersion)
	b = binary.AppendUvarint(b, uint64(m.Universe))
	b = binary.AppendUvarint(b, uint64(m.Total))
	b = binary.AppendUvarint(b, uint64(book.Scheme()))
	b = book.AppendSection(b, 0, m.Universe)
	b = binary.AppendUvarint(b, uint64(len(m.Components)))
	for _, c := range m.Components {
		b = binary.AppendUvarint(b, uint64(c.Count))
		b = binenc.AppendAscending(b, c.Feat)
		for j := range c.Feat {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.marginal(j)))
		}
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	_, err := w.Write(b)
	return err
}

// ReadSummary reads one whole summary artifact: the binary layout,
// recognized by its magic bytes, or else the original JSON document, which
// nothing writes any more. Bytes after the artifact are an error.
func ReadSummary(r io.Reader) (Mixture, *feature.Codebook, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Mixture{}, nil, fmt.Errorf("core: reading summary: %w", err)
	}
	decode := decodeSummaryJSON
	if bytes.HasPrefix(data, []byte(binaryMagic)) {
		decode = decodeSummaryBinary
	}
	m, book, err := decode(data)
	if err != nil {
		return Mixture{}, nil, fmt.Errorf("core: reading summary: %w", err)
	}
	return m, book, nil
}

// decodeSummaryBinary decodes a binary artifact, magic included.
func decodeSummaryBinary(data []byte) (Mixture, *feature.Codebook, error) {
	r := binenc.NewReader(data[len(binaryMagic):])
	switch version := r.Byte(); {
	case r.Err() != nil:
		return Mixture{}, nil, r.Err()
	case version == binaryVersion:
		if len(data) < len(binaryMagic)+1+4 {
			return Mixture{}, nil, binenc.ErrTruncated
		}
		body := data[:len(data)-4]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(body):]) {
			return Mixture{}, nil, errors.New("binary CRC mismatch (artifact corrupt)")
		}
		r = binenc.NewReader(body[len(binaryMagic)+1:])
	case version != 1:
		return Mixture{}, nil, fmt.Errorf("unsupported binary version %d", version)
	}
	// a feature takes at least two bytes, which bounds the universe before
	// the codebook section is read
	m := Mixture{Universe: r.Count(2), Total: r.Int(MaxCount)}
	book := feature.NewCodebook(feature.Scheme(r.Int(int(feature.ExtendedScheme))))
	book.ReadSection(r)
	if r.Err() == nil && book.Size() != m.Universe {
		return Mixture{}, nil, fmt.Errorf("binary summary lists %d features for universe %d", book.Size(), m.Universe)
	}
	// a cluster takes at least two bytes, a support entry nine
	if n := r.Count(2); n > 0 {
		m.Components = make([]Naive, n)
	}
	for ci := range m.Components {
		e := &m.Components[ci]
		e.Count = r.Int(MaxCount)
		support := r.Count(9)
		e.Feat, e.Cnt = make([]uint32, 0, support), make([]int, support)
		r.Ascending(support, m.Universe, func(f int) { e.Feat = append(e.Feat, uint32(f)) })
		for j := range e.Cnt {
			var err error
			e.Cnt[j], err = snapCount(math.Float64frombits(r.Uint64()), e.Count)
			r.Fail(err)
		}
		if r.Err() != nil {
			return Mixture{}, nil, fmt.Errorf("cluster %d: %w", ci, r.Err())
		}
	}
	if r.Err() == nil && r.Len() != 0 {
		return Mixture{}, nil, fmt.Errorf("%d bytes after the last cluster", r.Len())
	}
	return m, book, r.Err()
}

// decodeSummaryJSON decodes the version-1 JSON layout.
func decodeSummaryJSON(data []byte) (Mixture, *feature.Codebook, error) {
	var f summaryFile
	if err := json.Unmarshal(data, &f); err != nil {
		return Mixture{}, nil, err
	}
	if f.Version != 1 {
		return Mixture{}, nil, fmt.Errorf("unsupported version %d", f.Version)
	}
	if len(f.Features) != f.Universe {
		return Mixture{}, nil, fmt.Errorf("lists %d features for universe %d", len(f.Features), f.Universe)
	}
	if f.Total < 0 || f.Total > MaxCount {
		return Mixture{}, nil, fmt.Errorf("total %d outside 0..2^50", f.Total)
	}
	if f.Scheme < 0 || f.Scheme > int(feature.ExtendedScheme) {
		return Mixture{}, nil, fmt.Errorf("unknown feature scheme %d", f.Scheme)
	}
	book := feature.NewCodebook(feature.Scheme(f.Scheme))
	for _, fe := range f.Features {
		if err := book.Restore(feature.Feature{Kind: feature.Kind(fe.Kind), Text: fe.Text}); err != nil {
			return Mixture{}, nil, err
		}
	}
	m := Mixture{Universe: f.Universe, Total: f.Total}
	for ci, rec := range f.Clusters {
		if len(rec.Index) != len(rec.Marginal) {
			return Mixture{}, nil, fmt.Errorf("cluster %d has mismatched sparse arrays", ci)
		}
		if rec.Count < 0 || rec.Count > MaxCount {
			return Mixture{}, nil, fmt.Errorf("cluster %d count %d outside 0..2^50", ci, rec.Count)
		}
		e := Naive{Count: rec.Count, Feat: make([]uint32, len(rec.Index)), Cnt: make([]int, len(rec.Index))}
		for j, idx := range rec.Index {
			if idx < 0 || idx >= f.Universe {
				return Mixture{}, nil, fmt.Errorf("cluster %d references feature %d outside universe", ci, idx)
			}
			if j > 0 && idx <= rec.Index[j-1] {
				return Mixture{}, nil, fmt.Errorf("cluster %d lists feature %d after %d: indices must be strictly ascending", ci, idx, rec.Index[j-1])
			}
			e.Feat[j] = uint32(idx)
			var err error
			if e.Cnt[j], err = snapCount(rec.Marginal[j], rec.Count); err != nil {
				return Mixture{}, nil, fmt.Errorf("cluster %d: %w", ci, err)
			}
		}
		m.Components = append(m.Components, e)
	}
	return m, book, nil
}

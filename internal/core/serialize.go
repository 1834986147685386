package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"logr/internal/feature"
)

// Persistence for compressed summaries. A LogR artifact on disk is the
// mixture encoding (per-cluster marginals) plus the codebook that maps
// feature indices back to SQL fragments — everything needed to answer
// workload statistics and render visualizations without the original log.
//
// Two formats exist. The original JSON layout (WriteSummary) remains fully
// readable; the compact binary layout (WriteSummaryBinary) is the default
// artifact a compression library ought to emit: a magic+version header, the
// codebook as length-prefixed strings, and each cluster's sparse marginals
// as varint-delta feature indices plus raw IEEE-754 bits. ReadSummary
// auto-detects the format from the first bytes.

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

// epochFeatures returns the codebook prefix the mixture's universe covers.
// The codebook is append-only and may have grown past the summarized
// snapshot (appends after Compress, or a range summary ending before the
// newest segment); features with index ≥ universe are post-epoch and are
// not part of the artifact — the restored summary reports probability 0
// for them, same as the live one.
func epochFeatures(m Mixture, book *feature.Codebook) ([]feature.Feature, error) {
	feats := book.Features()
	if len(feats) < m.Universe {
		return nil, fmt.Errorf("core: codebook has %d features for universe %d", len(feats), m.Universe)
	}
	return feats[:m.Universe], nil
}

// WriteSummary serializes a mixture encoding with its codebook.
func WriteSummary(w io.Writer, m Mixture, book *feature.Codebook) error {
	feats, err := epochFeatures(m, book)
	if err != nil {
		return err
	}
	f := summaryFile{
		Version:  1,
		Universe: m.Universe,
		Total:    m.Total,
		Scheme:   int(book.Scheme()),
	}
	for _, ft := range feats {
		f.Features = append(f.Features, featureEntry{Kind: int(ft.Kind), Text: ft.Text})
	}
	for _, c := range m.Components {
		rec := clusterRecord{Count: c.Count}
		for j, f := range c.Feat {
			rec.Index = append(rec.Index, int(f))
			rec.Marginal = append(rec.Marginal, c.marginal(j))
		}
		f.Clusters = append(f.Clusters, rec)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
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
func snapCount(ci int, p float64, n int) (int, error) {
	if !(p >= 0 && p <= 1) {
		return 0, fmt.Errorf("core: cluster %d has marginal %v outside [0,1]", ci, p)
	}
	c := int(math.Round(p * float64(n)))
	if c < 1 {
		return 0, fmt.Errorf("core: cluster %d has marginal %v, a count of 0 of its %d queries", ci, p, n)
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

// crcWriter updates a running CRC32 with everything written through it.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p[:n])
	return n, err
}

// WriteSummaryBinary serializes a mixture encoding with its codebook in the
// compact binary format:
//
//	"LGRS" | version u8
//	universe, total, scheme, featureCount   (uvarint)
//	featureCount × (kind uvarint, len uvarint, bytes)
//	clusterCount                            (uvarint)
//	clusterCount × (count uvarint, support uvarint,
//	                support × index-delta uvarint,
//	                support × float64 marginal bits, little-endian)
//	crc32 u32le                             (IEEE, over every preceding byte)
//
// Indices are stored as deltas between consecutive sparse entries, so the
// hot part of the artifact is a varint stream plus the raw marginal words.
// The trailing CRC makes bit rot and torn copies detectable on read;
// version-1 artifacts without it are still accepted.
func WriteSummaryBinary(w io.Writer, m Mixture, book *feature.Codebook) error {
	feats, err := epochFeatures(m, book)
	if err != nil {
		return err
	}
	cw := &crcWriter{w: w}
	bw := bufio.NewWriter(cw)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(binaryVersion); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	if err := putUvarint(uint64(m.Universe)); err != nil {
		return err
	}
	if err := putUvarint(uint64(m.Total)); err != nil {
		return err
	}
	if err := putUvarint(uint64(book.Scheme())); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(feats))); err != nil {
		return err
	}
	for _, ft := range feats {
		if err := putUvarint(uint64(ft.Kind)); err != nil {
			return err
		}
		if err := putUvarint(uint64(len(ft.Text))); err != nil {
			return err
		}
		if _, err := bw.WriteString(ft.Text); err != nil {
			return err
		}
	}
	if err := putUvarint(uint64(len(m.Components))); err != nil {
		return err
	}
	var word [8]byte
	for _, c := range m.Components {
		if err := putUvarint(uint64(c.Count)); err != nil {
			return err
		}
		if err := putUvarint(uint64(len(c.Feat))); err != nil {
			return err
		}
		prev := uint32(0)
		for _, f := range c.Feat {
			if err := putUvarint(uint64(f - prev)); err != nil {
				return err
			}
			prev = f
		}
		for j := range c.Feat {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(c.marginal(j)))
			if _, err := bw.Write(word[:]); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// trailer: CRC over everything flushed so far, written past the hash
	binary.LittleEndian.PutUint32(word[:4], cw.crc)
	_, err = cw.w.Write(word[:4])
	return err
}

// crcReader hashes every byte the binary decoder consumes, so the
// version-2 trailer can be verified without buffering the whole artifact.
// The trailer itself is read from the underlying reader, not through here.
type crcReader struct {
	br  *bufio.Reader
	crc uint32
	one [1]byte
}

func (cr *crcReader) ReadByte() (byte, error) {
	b, err := cr.br.ReadByte()
	if err == nil {
		cr.one[0] = b
		cr.crc = crc32.Update(cr.crc, crc32.IEEETable, cr.one[:])
	}
	return b, err
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.br.Read(p)
	cr.crc = crc32.Update(cr.crc, crc32.IEEETable, p[:n])
	return n, err
}

// readSummaryBinary decodes the binary format after the magic has been
// consumed by the auto-detecting ReadSummary.
func readSummaryBinary(br *bufio.Reader) (Mixture, *feature.Codebook, error) {
	fail := func(err error) (Mixture, *feature.Codebook, error) {
		return Mixture{}, nil, fmt.Errorf("core: reading binary summary: %w", err)
	}
	// the hash covers the artifact from its first byte; the magic was
	// already consumed, so seed with it
	cr := &crcReader{br: br, crc: crc32.ChecksumIEEE([]byte(binaryMagic))}
	version, err := cr.ReadByte()
	if err != nil {
		return fail(err)
	}
	if version != 1 && version != binaryVersion {
		return Mixture{}, nil, fmt.Errorf("core: unsupported binary summary version %d", version)
	}
	// Structural fields (universe, feature counts, string lengths) size
	// allocations, so a corrupt or adversarial header must not be able to
	// demand terabytes before the stream runs dry; counts (query totals)
	// never allocate and may legitimately be huge for a heavy-traffic log.
	const maxStructural = 1 << 24 // 16M features / 16 MiB feature text
	readBounded := func(limit uint64) (int, error) {
		v, err := binary.ReadUvarint(cr)
		if err != nil {
			return 0, err
		}
		if v > limit {
			return 0, fmt.Errorf("implausible length %d", v)
		}
		return int(v), nil
	}
	readUvarint := func() (int, error) { return readBounded(maxStructural) }
	universe, err := readUvarint()
	if err != nil {
		return fail(err)
	}
	total, err := readBounded(MaxCount)
	if err != nil {
		return fail(err)
	}
	scheme, err := readUvarint()
	if err != nil {
		return fail(err)
	}
	nfeats, err := readUvarint()
	if err != nil {
		return fail(err)
	}
	if nfeats != universe {
		return Mixture{}, nil, fmt.Errorf("core: binary summary lists %d features for universe %d", nfeats, universe)
	}
	book := feature.NewCodebook(feature.Scheme(scheme))
	for i := 0; i < nfeats; i++ {
		kind, err := readUvarint()
		if err != nil {
			return fail(err)
		}
		n, err := readUvarint()
		if err != nil {
			return fail(err)
		}
		text := make([]byte, n)
		if _, err := io.ReadFull(cr, text); err != nil {
			return fail(err)
		}
		if book.Register(feature.Feature{Kind: feature.Kind(kind), Text: string(text)}) != i {
			return Mixture{}, nil, fmt.Errorf("core: binary summary repeats feature %d", i)
		}
	}
	nclusters, err := readUvarint()
	if err != nil {
		return fail(err)
	}
	m := Mixture{Universe: universe, Total: total}
	var word [8]byte
	for ci := 0; ci < nclusters; ci++ {
		count, err := readBounded(MaxCount)
		if err != nil {
			return fail(err)
		}
		support, err := readUvarint()
		if err != nil {
			return fail(err)
		}
		if support > universe {
			return Mixture{}, nil, fmt.Errorf("core: cluster %d claims support %d over universe %d", ci, support, universe)
		}
		e := Naive{Count: count, Feat: make([]uint32, support), Cnt: make([]int, support)}
		prev := 0
		for j := 0; j < support; j++ {
			d, err := readUvarint()
			if err != nil {
				return fail(err)
			}
			if j > 0 && d == 0 {
				// the writer emits strictly ascending indices, so a zero
				// delta past the first entry is a duplicate — corrupt
				return Mixture{}, nil, fmt.Errorf("core: cluster %d repeats feature %d", ci, prev)
			}
			prev += d
			if prev >= universe {
				return Mixture{}, nil, fmt.Errorf("core: cluster %d references feature %d outside universe", ci, prev)
			}
			e.Feat[j] = uint32(prev)
		}
		for j := 0; j < support; j++ {
			if _, err := io.ReadFull(cr, word[:]); err != nil {
				return fail(err)
			}
			if e.Cnt[j], err = snapCount(ci, math.Float64frombits(binary.LittleEndian.Uint64(word[:])), count); err != nil {
				return Mixture{}, nil, err
			}
		}
		m.Components = append(m.Components, e)
	}
	if version >= 2 {
		// verify the CRC trailer; it is read from br directly so it does not
		// fold into the running hash
		want := cr.crc
		if _, err := io.ReadFull(br, word[:4]); err != nil {
			return fail(fmt.Errorf("missing CRC trailer: %w", err))
		}
		if got := binary.LittleEndian.Uint32(word[:4]); got != want {
			return Mixture{}, nil, fmt.Errorf("core: binary summary CRC mismatch (artifact corrupt)")
		}
	}
	return m, book, nil
}

// ReadSummary deserializes a summary in either format: the binary layout is
// recognized by its magic bytes, anything else is decoded as the original
// JSON document.
func ReadSummary(r io.Reader) (Mixture, *feature.Codebook, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(binaryMagic))
	if err == nil && string(head) == binaryMagic {
		br.Discard(len(binaryMagic))
		return readSummaryBinary(br)
	}
	return readSummaryJSON(br)
}

// readSummaryJSON deserializes the version-1 JSON layout.
func readSummaryJSON(r io.Reader) (Mixture, *feature.Codebook, error) {
	var f summaryFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return Mixture{}, nil, fmt.Errorf("core: reading summary: %w", err)
	}
	if f.Version != 1 {
		return Mixture{}, nil, fmt.Errorf("core: unsupported summary version %d", f.Version)
	}
	if len(f.Features) != f.Universe {
		return Mixture{}, nil, fmt.Errorf("core: summary lists %d features for universe %d", len(f.Features), f.Universe)
	}
	if f.Total < 0 || f.Total > MaxCount {
		return Mixture{}, nil, fmt.Errorf("core: summary total %d outside 0..2^50", f.Total)
	}
	book := feature.NewCodebook(feature.Scheme(f.Scheme))
	for i, fe := range f.Features {
		if book.Register(feature.Feature{Kind: feature.Kind(fe.Kind), Text: fe.Text}) != i {
			return Mixture{}, nil, fmt.Errorf("core: summary repeats feature %d", i)
		}
	}
	m := Mixture{Universe: f.Universe, Total: f.Total}
	for ci, rec := range f.Clusters {
		if len(rec.Index) != len(rec.Marginal) {
			return Mixture{}, nil, fmt.Errorf("core: cluster %d has mismatched sparse arrays", ci)
		}
		if rec.Count < 0 || rec.Count > MaxCount {
			return Mixture{}, nil, fmt.Errorf("core: cluster %d count %d outside 0..2^50", ci, rec.Count)
		}
		e := Naive{Count: rec.Count, Feat: make([]uint32, len(rec.Index)), Cnt: make([]int, len(rec.Index))}
		for j, idx := range rec.Index {
			if idx < 0 || idx >= f.Universe {
				return Mixture{}, nil, fmt.Errorf("core: cluster %d references feature %d outside universe", ci, idx)
			}
			if j > 0 && idx <= rec.Index[j-1] {
				return Mixture{}, nil, fmt.Errorf("core: cluster %d lists feature %d after %d: indices must be strictly ascending", ci, idx, rec.Index[j-1])
			}
			e.Feat[j] = uint32(idx)
			var err error
			if e.Cnt[j], err = snapCount(ci, rec.Marginal[j], rec.Count); err != nil {
				return Mixture{}, nil, err
			}
		}
		m.Components = append(m.Components, e)
	}
	return m, book, nil
}

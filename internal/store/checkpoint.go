package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"logr/internal/binenc"
	"logr/internal/bitvec"
	"logr/internal/core"
	"logr/internal/vfs"
	"logr/internal/workload"
)

// Checkpoint files. A checkpoint captures the durable store's complete
// in-memory state — the incremental encoder (codebooks, parse cache,
// canonical-query table) and the segmented store (segment sub-logs,
// boundary, counters) — bound to the WAL offset it covers, so recovery
// restores the checkpoint and replays only the WAL records after that
// offset. Without one, replay cost and WAL size grow with the store's
// whole life; with one, both are O(tail since last checkpoint).
//
// The checkpoint is self-contained — together with the WAL tail it is
// everything the data directory holds — and it must capture full encoder
// state because the encoder is a function of the entire entry stream ever
// ingested, not of the current snapshot. Nearly all of that state is
// append-only (see workload/state.go), so rewriting it at every checkpoint
// would cost O(everything ever admitted) each time, O(n²) over a run. The
// checkpoint is therefore two files:
//
//	checkpoint         the head, rewritten whole by every checkpoint:
//	  "LGCP" | version u8 | walOffset u64le |
//	  admGen u64le | admLen u64le | admCRC u32le |
//	  encoder counters | store state | crc32 u32le
//	checkpoint.adm.N   admission log generation N = admGen, append-only:
//	  (length u64le | encoder admissions delta)*
//
// A checkpoint appends one frame holding what the encoder admitted since
// the previous checkpoint (nothing, when nothing was) to the admission
// log and fsyncs it, and only then lands the new head atomically (temp
// file + fsync + rename). The head is the commit point and says how much
// of the log it vouches for: admLen bytes, whose CRC-32 is admCRC. So
//
//   - a crash before the rename leaves the old head, which still records
//     the old length; the appended bytes past it are leftovers that reads
//     ignore and the next append cuts away;
//   - a crash after the rename finds the bytes the new head records
//     already on stable storage, because the fsync came first;
//   - a log shorter than recorded, or with a different CRC, means the
//     pair does not belong together (an fsync that lied, a file restored
//     from elsewhere): a hard error, like a WAL/checkpoint mismatch. The
//     head has to carry the length for exactly this reason — the log
//     alone cannot tell a committed frame from a leftover one.
//
// Re-arming after a disk fault trusts nothing on disk: it writes the whole
// admission state as one frame into generation N+1 and points a new head
// at it; a stale generation is removed when the store opens. The range
// cache is deliberately not checkpointed: it rebuilds on the first query.

const (
	ckptMagic = "LGCP"
	// ckptVersion is also the layout version of the admission-log frames
	// (workload.StateVersion). A version-2 pair still opens; the first
	// checkpoint after that rewrites the admissions into a new generation
	// in the current layout, as a re-arm does.
	ckptVersion   = workload.StateVersion
	ckptFileName  = "checkpoint"
	admFilePrefix = ckptFileName + ".adm."

	// magic, version, walOffset, admGen, admLen, admCRC
	ckptHeaderLen = len(ckptMagic) + 1 + 8 + 8 + 8 + 4
	admFrameHdr   = 8
)

// admission locates the committed prefix of the admission log: which
// generation, how many bytes of it the head vouches for, their CRC-32, the
// encoder position those bytes restore to, and whether its frames are in
// the version-2 layout.
type admission struct {
	gen    uint64
	len    int64
	crc    uint32
	mark   workload.StateMark
	legacy bool
}

// version is the layout of the log's frames.
func (a admission) version() byte {
	if a.legacy {
		return 2
	}
	return ckptVersion
}

func admFileName(gen uint64) string { return admFilePrefix + strconv.FormatUint(gen, 10) }

// checkpointState serializes what a checkpoint taken now has to write: the
// admission-log frame covering everything the encoder admitted after since
// (nil when nothing was), the head's state section, and the encoder
// position the frame reaches. Caller must ensure the store is quiescent
// apart from readers (the commit stage holds seqMu and the applier is
// drained); s.mu keeps those readers, which may fill the encoder's
// snapshot cache, from interleaving.
func (s *Store) checkpointState(since workload.StateMark) (frame, state []byte, mark workload.StateMark) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if mark = s.enc.Mark(); mark != since {
		frame = s.enc.AppendAdmissions(make([]byte, admFrameHdr, 1<<16), since)
		binary.LittleEndian.PutUint64(frame, uint64(len(frame)-admFrameHdr))
	}
	// sealed segments are already encoded: the state section copies their
	// bytes into one buffer sized for all of them
	size := 1<<12 + 2*len(s.boundary)
	for _, sg := range s.segs {
		size += 8*binary.MaxVarintLen64 + len(sg.sub)
	}
	state = s.enc.AppendCounters(make([]byte, 0, size))
	state = binary.AppendUvarint(state, uint64(s.nextID))
	state = appendEpoch(state, s.boundaryEpoch)
	state = binary.AppendUvarint(state, uint64(len(s.boundary)))
	for _, c := range s.boundary {
		state = binary.AppendUvarint(state, uint64(c))
	}
	state = binary.AppendUvarint(state, uint64(len(s.segs)))
	for _, sg := range s.segs {
		state = binary.AppendUvarint(state, uint64(sg.meta.ID))
		state = binary.AppendUvarint(state, uint64(sg.meta.EndID))
		state = appendEpoch(state, sg.meta.StartEpoch)
		state = appendEpoch(state, sg.meta.Epoch)
		state = append(state, sg.sub...)
	}
	return frame, state, mark
}

// encodeHead frames a checkpoint head: state as of WAL offset off, resting
// on the admission-log prefix adm, which must be in the current layout.
func encodeHead(off int64, adm admission, state []byte) []byte {
	b := make([]byte, 0, ckptHeaderLen+len(state)+4)
	b = append(b, ckptMagic...)
	b = append(b, ckptVersion)
	b = binary.LittleEndian.AppendUint64(b, uint64(off))
	b = binary.LittleEndian.AppendUint64(b, adm.gen)
	b = binary.LittleEndian.AppendUint64(b, uint64(adm.len))
	b = binary.LittleEndian.AppendUint32(b, adm.crc)
	b = append(b, state...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// decodeHead validates a checkpoint head and splits it into the WAL offset
// it covers, the admission-log prefix it rests on and its state section.
func decodeHead(data []byte) (off int64, adm admission, state []byte, err error) {
	if len(data) < len(ckptMagic)+1 || string(data[:len(ckptMagic)]) != ckptMagic {
		return 0, adm, nil, errors.New("store: not a checkpoint file")
	}
	switch v := data[len(ckptMagic)]; {
	case v == 1:
		return 0, adm, nil, fmt.Errorf("store: checkpoint is format version 1 (one self-contained file); "+
			"this build reads versions 2 and %d (head + admission log) only — reopen the directory with the release that wrote it", ckptVersion)
	case v == 2:
		adm.legacy = true
	case v != ckptVersion:
		return 0, adm, nil, fmt.Errorf("store: unsupported checkpoint version %d", v)
	}
	if len(data) < ckptHeaderLen+4 {
		return 0, adm, nil, errors.New("store: truncated checkpoint header")
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return 0, adm, nil, errors.New("store: checkpoint fails its CRC check")
	}
	r := binenc.NewReader(body[len(ckptMagic)+1:])
	off, adm.gen, adm.len, adm.crc = int64(r.Uint64()), r.Uint64(), int64(r.Uint64()), r.Uint32()
	if off < 0 || adm.len < 0 {
		return 0, adm, nil, errors.New("store: negative checkpoint offset")
	}
	return off, adm, body[ckptHeaderLen:], nil
}

// readAdmissions streams the committed prefix of an admission log — exactly
// adm.len bytes of r, frame by frame — into enc and checks it against the
// CRC the head recorded. Bytes after the prefix are not read.
func readAdmissions(r io.Reader, adm admission, enc *workload.Encoder) error {
	short := func(err error) error {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("admission log is shorter than the %d bytes the checkpoint records", adm.len)
		}
		return err
	}
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [admFrameHdr]byte
	var frame []byte
	crc := uint32(0)
	for left := adm.len; left > 0; {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return short(err)
		}
		n := binary.LittleEndian.Uint64(hdr[:])
		if left -= admFrameHdr; n > uint64(max(left, 0)) {
			return errors.New("admission log frame overruns the length the checkpoint records")
		}
		if uint64(cap(frame)) < n {
			frame = make([]byte, n)
		}
		frame = frame[:n]
		if _, err := io.ReadFull(br, frame); err != nil {
			return short(err)
		}
		left -= int64(n)
		crc = crc32.Update(crc32.Update(crc, crc32.IEEETable, hdr[:]), crc32.IEEETable, frame)
		rest, err := enc.RestoreAdmissions(frame, adm.version())
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return errors.New("trailing bytes in an admission log frame")
		}
	}
	if crc != adm.crc {
		return errors.New("admission log fails the CRC check the checkpoint records")
	}
	return nil
}

// appendAdmissions makes frame durable at offset at of the admission log,
// the end of its committed prefix. Anything past at is the leftover of a
// checkpoint that crashed or failed before its head landed, and is cut.
func appendAdmissions(fsys vfs.FS, path string, at int64, frame []byte) error {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	defer f.Close() // error paths; success returns the checked Close below
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if size < at {
		return fmt.Errorf("store: admission log %s holds %d bytes, the checkpoint records %d", path, size, at)
	}
	if size > at {
		if err := f.Truncate(at); err != nil {
			return err
		}
		if _, err := f.Seek(at, io.SeekStart); err != nil {
			return err
		}
	}
	if _, err := f.Write(frame); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return f.Close()
}

// loadCheckpoint restores the checkpoint under dir, if any: the head, then
// the admission-log prefix it records, streamed. A missing head is a fresh
// start (nil store, offset 0); a present but unreadable head or admission
// log is a hard error — the WAL may already be rotated past the covered
// prefix, so guessing "no checkpoint" could silently lose data.
func loadCheckpoint(fsys vfs.FS, dir string, opts Options) (*Store, int64, admission, error) {
	path := filepath.Join(dir, ckptFileName)
	data, err := vfs.ReadFile(fsys, path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, 0, admission{}, nil
		}
		return nil, 0, admission{}, err
	}
	off, adm, state, err := decodeHead(data)
	if err != nil {
		return nil, 0, adm, fmt.Errorf("store: reading %s: %w", path, err)
	}
	enc := workload.NewEncoder(opts.Encode)
	if adm.len > 0 {
		admPath := filepath.Join(dir, admFileName(adm.gen))
		f, err := fsys.OpenFile(admPath, os.O_RDONLY, 0)
		if err != nil {
			return nil, 0, adm, fmt.Errorf("store: opening the admission log of %s: %w", path, err)
		}
		err = readAdmissions(f, adm, enc)
		f.Close()
		if err != nil {
			return nil, 0, adm, fmt.Errorf("store: reading %s: %w", admPath, err)
		}
	}
	adm.mark = enc.Mark()
	mem, err := restoreState(state, enc, opts)
	if err != nil {
		return nil, 0, adm, fmt.Errorf("store: reading %s: %w", path, err)
	}
	return mem, off, adm, nil
}

// removeStaleAdmissionLogs deletes admission-log generations other than
// keep: what a crash in the middle of a re-arm strands. Best effort — a
// stale generation costs disk space, never correctness.
func removeStaleAdmissionLogs(fsys vfs.FS, dir string, keep uint64) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	live := admFileName(keep)
	for _, e := range ents {
		if name := e.Name(); strings.HasPrefix(name, admFilePrefix) && name != live {
			fsys.Remove(filepath.Join(dir, name))
		}
	}
}

// restoreState rebuilds a store from a head's state section on top of enc,
// whose admission tables are already restored.
func restoreState(state []byte, enc *workload.Encoder, opts Options) (*Store, error) {
	rest, err := enc.RestoreCounters(state)
	if err != nil {
		return nil, err
	}
	r := binenc.NewReader(rest)
	s := &Store{enc: enc, opts: opts, nextID: r.Int(binenc.MaxInt)}
	s.boundaryEpoch = readEpoch(r)
	if n := r.Count(1); n > 0 {
		s.boundary = make([]int, n)
		for i := range s.boundary {
			s.boundary[i] = r.Int(binenc.MaxInt)
		}
	}
	for n := r.Count(1); n > 0 && r.Err() == nil; n-- {
		sg := &Segment{}
		sg.meta.ID = r.Int(binenc.MaxInt)
		sg.meta.EndID = r.Int(binenc.MaxInt)
		sg.meta.StartEpoch = readEpoch(r)
		sg.meta.Epoch = readEpoch(r)
		// the segment keeps the bytes it was read from, validated here
		// without building the log, and decodes them when a range needs it
		sub := r.Rest()
		_, sg.meta.Queries, sg.meta.Distinct = readSubLog(r, enc.Book().Size(), false)
		if r.Err() != nil {
			break
		}
		sg.sub = bytes.Clone(sub[:len(sub)-r.Len()])
		s.segs = append(s.segs, sg)
	}
	if r.Err() == nil && r.Len() != 0 {
		r.Fail(errors.New("trailing bytes"))
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("store: checkpoint state: %w", err)
	}
	return s, nil
}

func appendEpoch(b []byte, e workload.Epoch) []byte {
	b = binary.AppendUvarint(b, uint64(e.Universe))
	b = binary.AppendUvarint(b, uint64(e.TotalQueries))
	return binary.AppendUvarint(b, uint64(e.Distinct))
}

func readEpoch(r *binenc.Reader) workload.Epoch {
	return workload.Epoch{Universe: r.Int(binenc.MaxInt), TotalQueries: r.Int(binenc.MaxInt), Distinct: r.Int(binenc.MaxInt)}
}

// appendSubLog serializes a segment's sub-log: universe, then each
// distinct vector in first-appearance order as (multiplicity, support
// index run).
func appendSubLog(b []byte, l *core.Log) []byte {
	b = binary.AppendUvarint(b, uint64(l.Universe()))
	b = binary.AppendUvarint(b, uint64(l.Distinct()))
	for i := 0; i < l.Distinct(); i++ {
		b = binary.AppendUvarint(b, uint64(l.Multiplicity(i)))
		v := l.Vector(i)
		b = binary.AppendUvarint(b, uint64(v.Count()))
		prev := 0
		v.ForEach(func(bit int) {
			b = binary.AppendUvarint(b, uint64(bit-prev))
			prev = bit
		})
	}
	return b
}

// readSubLog reads one segment's sub-log and returns its query total and
// distinct count and, with build set, the log, built directly: appendSubLog
// writes distinct vectors, each with a positive multiplicity and its bits
// in ascending order, so nothing needs cloning or folding. Without build
// it only validates the bytes and allocates nothing, which is how a
// restore reads every segment: decoded, a segment over a wide universe
// takes many times its bytes. What appendSubLog never writes fails r: a
// zero multiplicity, a bit repeated or past the universe, a universe
// larger than the restored codebook (maxUniverse), rejected before it
// sizes an allocation. That no vector repeats is left to the checkpoint's
// CRC, which vouches that the bytes are the ones appendSubLog wrote.
func readSubLog(r *binenc.Reader, maxUniverse int, build bool) (l *core.Log, total, distinct int) {
	universe := r.Int(maxUniverse)
	// a vector takes at least two bytes
	distinct = r.Count(2)
	var vecs []bitvec.Vector
	var mult []int
	if build {
		vecs = make([]bitvec.Vector, 0, distinct)
		mult = make([]int, 0, distinct)
	}
	for i := 0; i < distinct && r.Err() == nil; i++ {
		m := r.Int(binenc.MaxInt)
		if m == 0 {
			r.Fail(errors.New("a sub-log vector of multiplicity 0"))
		}
		support := r.Count(1)
		if !build {
			r.Ascending(support, universe, nil)
		} else {
			v := bitvec.New(universe)
			r.Ascending(support, universe, v.Set)
			vecs = append(vecs, v)
			mult = append(mult, m)
		}
		total += m
	}
	if r.Err() != nil {
		return nil, 0, 0
	}
	if build {
		l = core.NewLogDistinct(universe, vecs, mult)
	}
	return l, total, distinct
}

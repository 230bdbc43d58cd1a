// Package audit is the embedded query engine over the decision
// journal: the WAL already records every rank decision, reward batch,
// train mark, hint rollover, and quarantine transition — an
// event-sourced database of the steering system's entire history —
// and this package makes it queryable without any external store.
//
// The design follows the no-statistics embedded-engine playbook:
// streaming iterator composition (segment scan → tag filter → key
// filter → LSN/time window), greedy clause-at-a-time planning that
// orders the cheapest/most-selective predicate first, and cheap
// per-segment index sidecars built on scan rather than by a stats
// pass. Sidecars (wal-NNN.idx) are pure derived data: a sparse
// LSN→offset table every K records, a bloom filter plus count-min
// sketch over the segment's 64-bit membership keys (template hashes
// and hashed event IDs), and the segment's wall-clock bound. Deleting
// them is always safe; they are rebuilt lazily on the next scan and
// eagerly at checkpoint, and never trusted without validating their
// checksum and their source segment's identity and length.
package audit

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"time"

	"qoadvisor/internal/bandit"
	"qoadvisor/internal/wal"
	"qoadvisor/internal/walrec"
)

const (
	idxMagic   = "QOIDX001"
	idxVersion = 1

	// DefaultSparseEvery is the sparse-index stride: the sidecar
	// records one byte offset every this many records.
	DefaultSparseEvery = 256

	// Count-min geometry: small and fixed — the sketch only has to
	// rank clause selectivity, not be precise.
	cmRows = 4
	cmCols = 1024
)

var idxCRCTable = crc32.MakeTable(crc32.Castagnoli)

// bloom is a fixed-k blocked-free bloom filter over 64-bit keys,
// power-of-two sized, probed by double hashing.
type bloom struct {
	words []uint64
	mask  uint64 // bit-index mask (len(words)*64 - 1)
	k     int
}

func newBloom(nKeys int) bloom {
	bitsWanted := nKeys * 10 // ~10 bits/key ≈ 1% false positives at k=4
	if bitsWanted < 1024 {
		bitsWanted = 1024
	}
	m := uint64(1) << bits.Len64(uint64(bitsWanted-1))
	return bloom{words: make([]uint64, m/64), mask: m - 1, k: 4}
}

// probes returns the double-hashing pair for key. Each hash is a full
// splitmix64 step (golden-ratio increment, then bandit.Mix64); the
// on-disk bloom and count-min cells depend on this exact arithmetic,
// so changing it means bumping idxMagic.
func probes(key uint64) (h1, h2 uint64) {
	return bandit.Mix64(key + bandit.MixGamma), bandit.Mix64((key^0xdeadbeefcafef00d)+bandit.MixGamma) | 1
}

func (b bloom) add(key uint64) {
	h1, h2 := probes(key)
	for i := 0; i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) & b.mask
		b.words[bit/64] |= 1 << (bit % 64)
	}
}

func (b bloom) mayContain(key uint64) bool {
	if len(b.words) == 0 {
		return false
	}
	h1, h2 := probes(key)
	for i := 0; i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) & b.mask
		if b.words[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// countMin is a tiny count-min sketch: Estimate upper-bounds how many
// records in the segment carry a key, which is all the planner needs
// to order clauses by selectivity.
type countMin struct {
	cells []uint32 // cmRows × cmCols
}

func newCountMin() countMin { return countMin{cells: make([]uint32, cmRows*cmCols)} }

func (c countMin) add(key uint64) {
	for r := 0; r < cmRows; r++ {
		col := bandit.Mix64(key+uint64(r+1)*bandit.MixGamma) % cmCols
		cell := &c.cells[r*cmCols+int(col)]
		if *cell < ^uint32(0) {
			*cell++
		}
	}
}

func (c countMin) estimate(key uint64) uint64 {
	if len(c.cells) == 0 {
		return 0
	}
	est := ^uint64(0)
	for r := 0; r < cmRows; r++ {
		col := bandit.Mix64(key+uint64(r+1)*bandit.MixGamma) % cmCols
		if v := uint64(c.cells[r*cmCols+int(col)]); v < est {
			est = v
		}
	}
	return est
}

// sidecar is the in-memory form of one segment's index: identity of
// the source segment (for staleness detection), a sparse LSN→offset
// table, per-tag record counts, and membership structures over the
// segment's keys.
type sidecar struct {
	segIndex    uint64
	firstLSN    uint64
	records     uint64
	segBytes    int64 // source segment length at build time
	mtime       time.Time
	sparseEvery uint64
	offsets     []int64 // offsets[i] = byte offset of record firstLSN + i*sparseEvery
	tagCounts   map[byte]uint64
	filter      bloom
	sketch      countMin
}

// lastLSN is the newest LSN the sidecar covers (meaningless when
// records is 0).
func (sc *sidecar) lastLSN() uint64 { return sc.firstLSN + sc.records - 1 }

// seek returns the best known starting point at or below target: a
// byte offset and the LSN of the record found there.
func (sc *sidecar) seek(target uint64) (offset int64, lsn uint64) {
	if target <= sc.firstLSN || len(sc.offsets) == 0 {
		return 0, sc.firstLSN // 0 means "open at the header"
	}
	i := (target - sc.firstLSN) / sc.sparseEvery
	if i >= uint64(len(sc.offsets)) {
		i = uint64(len(sc.offsets)) - 1
	}
	return sc.offsets[i], sc.firstLSN + i*sc.sparseEvery
}

// buildSidecar scans one segment and constructs its index. A torn or
// corrupt tail stops the build at the damage (the index then covers
// the valid prefix); the truncated flag reports it.
func buildSidecar(seg wal.SegmentInfo, sparseEvery int) (*sidecar, bool, error) {
	if sparseEvery <= 0 {
		sparseEvery = DefaultSparseEvery
	}
	st, err := os.Stat(seg.Path)
	if err != nil {
		return nil, false, fmt.Errorf("audit: %w", err)
	}
	sc := &sidecar{
		segIndex:    seg.Index,
		firstLSN:    seg.FirstLSN,
		segBytes:    st.Size(),
		mtime:       st.ModTime(),
		sparseEvery: uint64(sparseEvery),
		tagCounts:   make(map[byte]uint64),
	}
	sr, err := wal.OpenSegment(seg)
	if err != nil {
		return nil, false, err
	}
	defer sr.Close()

	var keys []uint64
	var keybuf []uint64
	truncated := false
	for {
		off := sr.Offset()
		_, payload, rerr := sr.Next()
		if rerr != nil {
			if isEOF(rerr) {
				break
			}
			if wal.IsCorruptRecord(rerr) {
				truncated = true
				break
			}
			return nil, false, rerr
		}
		if sc.records%sc.sparseEvery == 0 {
			sc.offsets = append(sc.offsets, off)
		}
		sc.records++
		if len(payload) > 0 {
			sc.tagCounts[payload[0]]++
			keybuf = keybuf[:0]
			// Unknown or malformed payloads contribute no keys; the tag
			// count above still records their presence.
			if kb, err := walrec.AppendKeys(keybuf, payload); err == nil {
				keys = append(keys, kb...)
			}
		}
	}

	sc.filter = newBloom(len(keys))
	sc.sketch = newCountMin()
	for _, k := range keys {
		sc.filter.add(k)
		sc.sketch.add(k)
	}
	return sc, truncated, nil
}

// encode renders the sidecar's durable form:
//
//	[8B magic][1B version]
//	uvarints: segIndex firstLSN records segBytes mtimeUnixNanos sparseEvery
//	[uvarint nOffsets][uvarint offset deltas]
//	[uvarint nTags]([1B tag][uvarint count])*
//	[uvarint bloomWords][uvarint k][words ×8B LE]
//	[uvarint cmRows][uvarint cmCols][cells ×4B LE]
//	[4B CRC32-C of everything above]
func (sc *sidecar) encode() []byte {
	b := make([]byte, 0, 64+len(sc.offsets)*4+len(sc.filter.words)*8+len(sc.sketch.cells)*4)
	b = append(b, idxMagic...)
	b = append(b, idxVersion)
	b = binary.AppendUvarint(b, sc.segIndex)
	b = binary.AppendUvarint(b, sc.firstLSN)
	b = binary.AppendUvarint(b, sc.records)
	b = binary.AppendUvarint(b, uint64(sc.segBytes))
	b = binary.AppendUvarint(b, uint64(sc.mtime.UnixNano()))
	b = binary.AppendUvarint(b, sc.sparseEvery)
	b = binary.AppendUvarint(b, uint64(len(sc.offsets)))
	prev := int64(0)
	for _, off := range sc.offsets {
		b = binary.AppendUvarint(b, uint64(off-prev)) // offsets ascend
		prev = off
	}
	b = binary.AppendUvarint(b, uint64(len(sc.tagCounts)))
	for _, tag := range walrec.Tags() {
		if n, ok := sc.tagCounts[tag]; ok {
			b = append(b, tag)
			b = binary.AppendUvarint(b, n)
		}
	}
	// Tags outside the registry (journal from a newer binary) still get
	// encoded, after the registered ones, in ascending order.
	for tag := 0; tag < 256; tag++ {
		if walrec.Known(byte(tag)) {
			continue
		}
		if n, ok := sc.tagCounts[byte(tag)]; ok {
			b = append(b, byte(tag))
			b = binary.AppendUvarint(b, n)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(sc.filter.words)))
	b = binary.AppendUvarint(b, uint64(sc.filter.k))
	for _, w := range sc.filter.words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	b = binary.AppendUvarint(b, cmRows)
	b = binary.AppendUvarint(b, cmCols)
	for _, c := range sc.sketch.cells {
		b = binary.LittleEndian.AppendUint32(b, c)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, idxCRCTable))
}

// decodeSidecar parses and checksums a sidecar file's bytes. Any
// malformation is an error — the caller rebuilds, it never guesses.
func decodeSidecar(b []byte) (*sidecar, error) {
	if len(b) < len(idxMagic)+1+4 {
		return nil, fmt.Errorf("audit: sidecar too short")
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.Checksum(body, idxCRCTable) != sum {
		return nil, fmt.Errorf("audit: sidecar checksum mismatch")
	}
	if string(body[:8]) != idxMagic {
		return nil, fmt.Errorf("audit: bad sidecar magic %q", body[:8])
	}
	if body[8] != idxVersion {
		return nil, fmt.Errorf("audit: sidecar version %d, want %d", body[8], idxVersion)
	}
	p := body[9:]
	take := func() (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, fmt.Errorf("audit: sidecar truncated")
		}
		p = p[n:]
		return v, nil
	}
	sc := &sidecar{}
	var v uint64
	var err error
	if sc.segIndex, err = take(); err != nil {
		return nil, err
	}
	if sc.firstLSN, err = take(); err != nil {
		return nil, err
	}
	if sc.records, err = take(); err != nil {
		return nil, err
	}
	if v, err = take(); err != nil {
		return nil, err
	}
	sc.segBytes = int64(v)
	if v, err = take(); err != nil {
		return nil, err
	}
	sc.mtime = time.Unix(0, int64(v))
	if sc.sparseEvery, err = take(); err != nil {
		return nil, err
	}
	if sc.sparseEvery == 0 {
		return nil, fmt.Errorf("audit: sidecar sparse stride 0")
	}
	nOff, err := take()
	if err != nil {
		return nil, err
	}
	if nOff > uint64(len(p)) { // each delta is ≥1 byte
		return nil, fmt.Errorf("audit: sidecar claims %d offsets in %d bytes", nOff, len(p))
	}
	sc.offsets = make([]int64, 0, nOff)
	prev := int64(0)
	for i := uint64(0); i < nOff; i++ {
		if v, err = take(); err != nil {
			return nil, err
		}
		prev += int64(v)
		sc.offsets = append(sc.offsets, prev)
	}
	nTags, err := take()
	if err != nil {
		return nil, err
	}
	if nTags > 256 {
		return nil, fmt.Errorf("audit: sidecar claims %d tags", nTags)
	}
	sc.tagCounts = make(map[byte]uint64, nTags)
	for i := uint64(0); i < nTags; i++ {
		if len(p) == 0 {
			return nil, fmt.Errorf("audit: sidecar truncated at tag table")
		}
		tag := p[0]
		p = p[1:]
		if v, err = take(); err != nil {
			return nil, err
		}
		sc.tagCounts[tag] = v
	}
	nWords, err := take()
	if err != nil {
		return nil, err
	}
	k, err := take()
	if err != nil {
		return nil, err
	}
	if nWords > uint64(len(p))/8 || nWords&(nWords-1) != 0 || k == 0 || k > 16 {
		return nil, fmt.Errorf("audit: sidecar bloom geometry invalid (%d words, k=%d)", nWords, k)
	}
	sc.filter = bloom{words: make([]uint64, nWords), mask: nWords*64 - 1, k: int(k)}
	for i := range sc.filter.words {
		sc.filter.words[i] = binary.LittleEndian.Uint64(p[i*8:])
	}
	p = p[nWords*8:]
	rows, err := take()
	if err != nil {
		return nil, err
	}
	cols, err := take()
	if err != nil {
		return nil, err
	}
	if rows != cmRows || cols != cmCols || uint64(len(p)) < rows*cols*4 {
		return nil, fmt.Errorf("audit: sidecar sketch geometry invalid (%d×%d in %d bytes)", rows, cols, len(p))
	}
	sc.sketch = countMin{cells: make([]uint32, rows*cols)}
	for i := range sc.sketch.cells {
		sc.sketch.cells[i] = binary.LittleEndian.Uint32(p[i*4:])
	}
	return sc, nil
}

// loadSidecar reads a sidecar file and validates it against its source
// segment: checksum, matching identity (index, first LSN), and a
// byte-identical source length. Any mismatch is an error — stale and
// corrupt sidecars are rebuilt, never trusted.
func loadSidecar(seg wal.SegmentInfo) (*sidecar, error) {
	raw, err := os.ReadFile(wal.SidecarPath(seg.Path))
	if err != nil {
		return nil, err // includes os.ErrNotExist: caller builds
	}
	sc, err := decodeSidecar(raw)
	if err != nil {
		return nil, err
	}
	if sc.segIndex != seg.Index || sc.firstLSN != seg.FirstLSN {
		return nil, fmt.Errorf("audit: sidecar identifies segment %d (lsn %d), file is segment %d (lsn %d)",
			sc.segIndex, sc.firstLSN, seg.Index, seg.FirstLSN)
	}
	st, err := os.Stat(seg.Path)
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	if st.Size() != sc.segBytes {
		return nil, fmt.Errorf("audit: sidecar built at %d segment bytes, segment now %d (stale)", sc.segBytes, st.Size())
	}
	return sc, nil
}

// writeSidecar persists the sidecar atomically beside its segment.
// Failure is non-fatal for the caller — the in-memory copy still
// serves this process; read-only journal copies simply stay unindexed
// on disk.
func writeSidecar(seg wal.SegmentInfo, sc *sidecar) error {
	path := wal.SidecarPath(seg.Path)
	tmp, err := os.CreateTemp(filepath.Dir(path), ".idx-*")
	if err != nil {
		return err
	}
	data := sc.encode()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

package audit

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"qoadvisor/internal/walrec"
)

// goldenSidecarSHA256 is the digest of the sidecar built by
// goldenSidecar. Sidecars persist on disk under the QOIDX001 magic, so
// any change to the hashing behind the bloom filter or the count-min
// sketch must either reproduce these bytes or bump the magic.
const goldenSidecarSHA256 = "6bfcd8b6b0f0b51051e2714164deefff43465dd56f802a501f826ed641ca0eb6"

// goldenSidecar builds a sidecar from fixed inputs only: no segment
// file, no wall clock.
func goldenSidecar() *sidecar {
	sc := &sidecar{
		segIndex:    3,
		firstLSN:    1000,
		records:     600,
		segBytes:    123456,
		mtime:       time.Unix(1700000000, 42),
		sparseEvery: DefaultSparseEvery,
		offsets:     []int64{0, 9000, 18500},
		tagCounts:   map[byte]uint64{walrec.TagRank: 400, walrec.TagRewardBatch: 199, 0xee: 1},
	}
	keys := make([]uint64, 0, 520)
	for i := uint64(0); i < 500; i++ {
		keys = append(keys, i*0x1000193+7)
	}
	// Repeated keys exercise the count-min counters beyond 1.
	for i := 0; i < 20; i++ {
		keys = append(keys, 0xabc123)
	}
	sc.filter = newBloom(len(keys))
	sc.sketch = newCountMin()
	for _, k := range keys {
		sc.filter.add(k)
		sc.sketch.add(k)
	}
	return sc
}

// TestSidecarEncodingGolden pins the sidecar's byte layout, including
// the bloom and count-min cells that the key hashing decides.
func TestSidecarEncodingGolden(t *testing.T) {
	sc := goldenSidecar()
	sum := sha256.Sum256(sc.encode())
	if got := hex.EncodeToString(sum[:]); got != goldenSidecarSHA256 {
		t.Errorf("sidecar sha256 = %s, want %s", got, goldenSidecarSHA256)
	}
	if !sc.filter.mayContain(0xabc123) || sc.sketch.estimate(0xabc123) < 20 {
		t.Errorf("golden key lost: bloom %v, count-min %d",
			sc.filter.mayContain(0xabc123), sc.sketch.estimate(0xabc123))
	}
}

package mapcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/verify"
)

// Disk-tier envelope format. All integers little-endian:
//
//	magic   "CGMC"                 4 bytes
//	version u32                    (currently 2)
//	keyLen  u32, key               full cache key (collision guard)
//	txtLen  u32, graph text        byte-compared against the caller's
//	imgLen  u32, image             bitstream
//	metaLen u32, meta JSON         Meta
//	digest  sha256                 over every preceding byte
//
// The digest catches torn/corrupted files cheaply; it is NOT the trust
// boundary. Every disk hit is additionally rebuilt against the caller's
// graph and re-verified by internal/verify before use (see Cache.lead), so
// an adversarially consistent file — valid digest, wrong bitstream — is
// still rejected and re-mapped, never trusted.
const (
	diskMagic   = "CGMC"
	diskVersion = 2
	diskSuffix  = ".mapcache"
)

func (c *Cache) diskPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.cfg.Dir, fmt.Sprintf("%x%s", sum[:16], diskSuffix))
}

// encodeEnvelope serializes e in the disk-tier envelope format. The
// wall-clock stats (CompileTime, Phases) are stored as zero, so an entry
// is a pure function of its request: two cold compiles write the same
// bytes. A disk hit therefore reports compile time 0; the memory tier
// keeps the measured times.
func encodeEnvelope(e *entry) []byte {
	meta := e.meta
	meta.Stats.CompileTime, meta.Stats.Phases = 0, core.PhaseTimes{}
	// Meta holds only integers, strings and integer slices, which
	// json.Marshal always encodes.
	metaJSON, _ := json.Marshal(meta)
	buf := []byte(diskMagic)
	buf = binary.LittleEndian.AppendUint32(buf, diskVersion)
	for _, blob := range [][]byte{[]byte(e.key), e.graphText, e.image, metaJSON} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blob)))
		buf = append(buf, blob...)
	}
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

func (c *Cache) storeDisk(e *entry) error {
	if err := os.MkdirAll(c.cfg.Dir, 0o755); err != nil {
		return err
	}
	path := c.diskPath(e.key)
	tmp, err := os.CreateTemp(c.cfg.Dir, "tmp-*"+diskSuffix)
	if err != nil {
		return err
	}
	if _, err := tmp.Write(encodeEnvelope(e)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// Atomic publish: readers either see the old entry or the complete new
	// one, never a torn write.
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// loadDisk reads and validates the disk entry for key. It returns the
// entry on success; (nil, false) when no entry exists; (nil, true) when a
// file exists but failed validation (corrupt, wrong key, different graph
// text) — the caller counts that as a disk rejection and recomputes.
func (c *Cache) loadDisk(key string, graphText []byte) (*entry, bool) {
	data, err := os.ReadFile(c.diskPath(key))
	if err != nil {
		return nil, false
	}
	e, err := parseEnvelope(data)
	if err != nil {
		return nil, true
	}
	if e.key != key || !bytes.Equal(e.graphText, graphText) {
		return nil, true
	}
	return e, true
}

func parseEnvelope(data []byte) (*entry, error) {
	if len(data) < len(diskMagic)+4+sha256.Size || string(data[:4]) != diskMagic {
		return nil, fmt.Errorf("mapcache: bad disk entry header")
	}
	body, digest := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], digest) {
		return nil, fmt.Errorf("mapcache: disk entry checksum mismatch")
	}
	r := body[4:]
	if binary.LittleEndian.Uint32(r) != diskVersion {
		return nil, fmt.Errorf("mapcache: unsupported disk entry version")
	}
	r = r[4:]
	// The blobs alias the file's bytes, each capped at its own end.
	var blobs [4][]byte
	for i := range blobs {
		if len(r) < 4 {
			return nil, fmt.Errorf("mapcache: disk entry truncated: %w", io.ErrUnexpectedEOF)
		}
		n := binary.LittleEndian.Uint32(r)
		r = r[4:]
		if int64(n) > int64(len(r)) {
			return nil, fmt.Errorf("mapcache: blob of %d bytes overruns entry", n)
		}
		blobs[i], r = r[:n:n], r[n:]
	}
	if len(r) != 0 {
		return nil, fmt.Errorf("mapcache: %d trailing bytes in disk entry", len(r))
	}
	key, graphText, image, metaJSON := blobs[0], blobs[1], blobs[2], blobs[3]
	e := &entry{key: string(key), graphText: graphText, image: image}
	if err := json.Unmarshal(metaJSON, &e.meta); err != nil {
		return nil, err
	}
	return e, nil
}

// verifyDiskResult is the disk-tier trust gate: the rebuilt program must
// implement the caller's graph according to the full static verifier.
func verifyDiskResult(res *Result) error {
	return verify.CheckProgram(res.Program).Err()
}

// EntryFiles lists the disk-tier entry files under dir in sorted order
// (fault-injection and inspection support).
func EntryFiles(dir string) ([]string, error) {
	return filepath.Glob(filepath.Join(dir, "*"+diskSuffix))
}

// RewriteEntry rewrites the bitstream image of the disk entry at path
// through mutate, recomputing the envelope digest so the result is a
// well-formed entry with a poisoned payload. This exists for fault
// injection: the oracle's cache-entry fault tests use it to prove the
// re-verify gate rejects a consistent-looking but wrong disk entry.
func RewriteEntry(path string, mutate func(image []byte) []byte) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	e, err := parseEnvelope(data)
	if err != nil {
		return err
	}
	e.image = mutate(e.image)
	return os.WriteFile(path, encodeEnvelope(e), 0o644)
}

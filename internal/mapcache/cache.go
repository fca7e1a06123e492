// Package mapcache implements a content-addressed cache for compiled CGRA
// mappings: a two-tier store — in-memory sharded LRU with singleflight
// deduplication plus an optional verified on-disk tier (cache.go,
// disk.go) — keyed by the SHA-256 of the graph's plain text
// (cdfg.MarshalText) × mapper options × grid structure × portfolio
// description. A graph hits only entries stored for the same text: a
// renamed or renumbered copy is a different key.
//
// A hit renders the key and decodes the stored image on every request,
// so neither path goes through fmt or reflection.
//
// Determinism rules: nothing in the key may consult wall-clock time, map
// iteration order, or process-local identities — the detrand/maprange
// analyzers in internal/lint enforce this package-wide.
package mapcache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/cdfg"
	"repro/internal/core"
	"repro/internal/obs"
)

// Config tunes a Cache. The zero value is usable: memory-only, default
// capacity, no instrumentation.
type Config struct {
	// Capacity bounds the in-memory entries across all shards (default 128).
	Capacity int
	// Shards is the lock-striping width (default 8).
	Shards int
	// Dir, when non-empty, enables the on-disk tier under that directory.
	// Disk entries survive processes; every disk hit is re-verified by
	// internal/verify before use and re-mapped on any mismatch.
	Dir string
	// Obs, when non-nil, receives the mapcache.* counters (hit, miss,
	// coalesced, evict, disk_hit, disk_reject, bypass, ...). A nil recorder
	// adds zero allocations.
	Obs *obs.Recorder
}

// Request identifies one mapping problem. Graph, Grid and Opt are the
// core.Map inputs; Seeds, Backends and Objective describe the portfolio
// around it (leave them zero for a plain single-seed Map) and enter the
// key verbatim — two requests collide only when every mapping-relevant
// input matches.
type Request struct {
	Graph *cdfg.Graph
	Grid  *arch.Grid
	Opt   core.Options

	// Seeds is the portfolio seed set (nil for a single-seed Map; the base
	// seed is already part of Opt).
	Seeds []int64
	// Backends names the racing backends (nil means the default heuristic).
	Backends []string
	// Objective names the portfolio objective ("" = total words).
	Objective string
}

// graphDigest renders the request graph's plain text and its SHA-256, the
// graph half of the cache key.
func graphDigest(g *cdfg.Graph) ([]byte, [sha256.Size]byte, error) {
	if g == nil {
		return nil, [sha256.Size]byte{}, fmt.Errorf("mapcache: request has no graph")
	}
	text, err := g.MarshalText()
	if err != nil {
		return nil, [sha256.Size]byte{}, err
	}
	return text, sha256.Sum256(text), nil
}

// key renders the full content address: graph text hash × sanitized
// mapper options × structural grid fingerprint × portfolio description.
func (r *Request) key(sum [sha256.Size]byte) string {
	var b strings.Builder
	b.WriteString(hex.EncodeToString(sum[:]))
	b.WriteByte('|')
	b.WriteString(r.Opt.Fingerprint())
	b.WriteByte('|')
	b.WriteString(r.Grid.Fingerprint())
	b.WriteString("|seeds=")
	for i, s := range r.Seeds {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(s, 10))
	}
	b.WriteString("|backends=")
	b.WriteString(strings.Join(r.Backends, ","))
	b.WriteString("|objective=")
	b.WriteString(r.Objective)
	return b.String()
}

// Computed is what a compute callback returns: the freshly mapped result.
// Program is optional — the cache assembles Mapping when it is nil.
type Computed struct {
	Mapping *core.Mapping
	Program *asm.Program
	// Seed/Backend describe which portfolio job won (informational; stored
	// with the entry and reported on hits).
	Seed    int64
	Backend string
}

// Meta is the mapping-derived metadata stored alongside the bitstream, so
// cache hits can rebuild reports without the Mapping object.
type Meta struct {
	Stats     core.Stats
	TileWords []int
	Ops       int
	Moves     int
	Pnops     int
	Words     int
	Seed      int64
	Backend   string
}

// Result is a cache response. Program is rebuilt against the caller's
// graph, and Image is its serialized form.
type Result struct {
	Program *asm.Program
	Image   []byte
	Meta    Meta
	// Hit is true when the result came from the cache; Source is one of
	// "compute", "memory" or "disk".
	Hit    bool
	Source string
}

type entry struct {
	key       string
	graphText []byte
	image     []byte
	meta      Meta
}

type flight struct {
	done chan struct{}
}

type shard struct {
	mu       sync.Mutex
	entries  map[string]*list.Element // values are *entry
	lru      list.List                // front = most recently used
	inflight map[string]*flight
}

// Cache is a two-tier content-addressed store of compiled mappings: a
// sharded in-memory LRU with singleflight deduplication of concurrent
// identical submissions, over an optional verified on-disk tier.
type Cache struct {
	cfg      Config
	perShard int
	shards   []shard
}

// New builds a Cache from cfg (see Config for the zero-value defaults).
func New(cfg Config) *Cache {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 128
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.Shards > cfg.Capacity {
		cfg.Shards = cfg.Capacity
	}
	c := &Cache{
		cfg:      cfg,
		perShard: (cfg.Capacity + cfg.Shards - 1) / cfg.Shards,
		shards:   make([]shard, cfg.Shards),
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*list.Element)
		c.shards[i].inflight = make(map[string]*flight)
	}
	return c
}

// shardOf picks the shard from the leading bytes of the graph digest.
func (c *Cache) shardOf(sum [sha256.Size]byte) *shard {
	return &c.shards[binary.LittleEndian.Uint64(sum[:8])%uint64(len(c.shards))]
}

// GetOrStore returns the cached result for req, computing and storing it
// via compute on a miss. Concurrent identical requests are coalesced: one
// caller computes, the rest wait and share the stored entry. On a nil
// Cache it computes, assembles and returns the same Result a miss does
// (Source "compute") and stores nothing, so callers get their program
// one way whether or not caching is on.
func (c *Cache) GetOrStore(req Request, compute func() (Computed, error)) (Result, error) {
	if c == nil {
		comp, err := compute()
		if err != nil {
			return Result{}, err
		}
		prog, meta, img, err := finishComputed(&comp)
		return Result{Program: prog, Image: img, Meta: meta, Source: "compute"}, err
	}
	rec := c.cfg.Obs
	text, sum, err := graphDigest(req.Graph)
	if err != nil {
		return Result{}, err
	}
	key := req.key(sum)
	sh := c.shardOf(sum)

	for {
		sh.mu.Lock()
		if el, ok := sh.entries[key]; ok {
			e := el.Value.(*entry)
			if bytes.Equal(e.graphText, text) {
				sh.lru.MoveToFront(el)
				sh.mu.Unlock()
				res, err := materialize(e, &req, "memory")
				if err == nil {
					rec.Counter("mapcache.hit").Inc()
					return res, nil
				}
				// A stored entry that cannot be rebuilt for this caller is
				// poison; drop it and fall through to compute.
				c.remove(sh, key)
				rec.Counter("mapcache.reject").Inc()
			} else {
				// Same 256-bit key, different graph text: a hash collision.
				// Correctness never rests on collision-freedom — the entry
				// simply does not match, so recompute.
				sh.mu.Unlock()
				rec.Counter("mapcache.reject").Inc()
			}
			rec.Counter("mapcache.miss").Inc()
			return c.computeAndStore(sh, key, text, compute)
		}
		if fl, ok := sh.inflight[key]; ok {
			sh.mu.Unlock()
			rec.Counter("mapcache.coalesced").Inc()
			<-fl.done
			// The leader stored the entry (or failed and left nothing);
			// loop to re-check. A leader failure leaves no entry and no
			// flight, so the next iteration takes the leader role.
			continue
		}
		fl := &flight{done: make(chan struct{})}
		sh.inflight[key] = fl
		sh.mu.Unlock()

		res, err := c.lead(sh, key, &req, text, compute)

		sh.mu.Lock()
		delete(sh.inflight, key)
		sh.mu.Unlock()
		close(fl.done)
		return res, err
	}
}

// lead runs the miss path as the singleflight leader: disk tier first,
// then compute-and-store.
func (c *Cache) lead(sh *shard, key string, req *Request, text []byte, compute func() (Computed, error)) (Result, error) {
	rec := c.cfg.Obs
	if c.cfg.Dir != "" {
		if e, rejected := c.loadDisk(key, text); e != nil {
			// Trust gate: a disk entry is only served after the rebuilt
			// program passes the full static verifier against the caller's
			// graph. A poisoned-but-checksummed file fails here and is
			// re-mapped, never trusted.
			if res, err := materialize(e, req, "disk"); err == nil && verifyDiskResult(&res) == nil {
				c.insert(sh, e)
				rec.Counter("mapcache.disk_hit").Inc()
				return res, nil
			}
			rec.Counter("mapcache.disk_reject").Inc()
		} else if rejected {
			rec.Counter("mapcache.disk_reject").Inc()
		}
	}
	rec.Counter("mapcache.miss").Inc()
	return c.computeAndStore(sh, key, text, compute)
}

func (c *Cache) computeAndStore(sh *shard, key string, text []byte, compute func() (Computed, error)) (Result, error) {
	comp, err := compute()
	if err != nil {
		return Result{}, err
	}
	prog, meta, img, err := finishComputed(&comp)
	if err != nil {
		return Result{}, err
	}
	e := &entry{key: key, graphText: text, image: img, meta: meta}
	c.insert(sh, e)
	c.cfg.Obs.Counter("mapcache.store").Inc()
	// An overflowing program is kept in memory (its caller decides what
	// to do with it) but never written to disk: the disk tier's verify
	// gate would reject it (CM001) on every later read.
	if fits, _ := prog.FitsMemory(); fits && c.cfg.Dir != "" {
		if err := c.storeDisk(e); err != nil {
			c.cfg.Obs.Counter("mapcache.disk_write_err").Inc()
		} else {
			c.cfg.Obs.Counter("mapcache.disk_store").Inc()
		}
	}
	return Result{Program: prog, Image: img, Meta: meta, Source: "compute"}, nil
}

// finishComputed normalizes a compute callback's output: assemble when the
// caller did not, serialize the image, derive the stored metadata.
func finishComputed(comp *Computed) (*asm.Program, Meta, []byte, error) {
	m := comp.Mapping
	if m == nil {
		return nil, Meta{}, nil, fmt.Errorf("mapcache: compute returned no mapping")
	}
	prog := comp.Program
	if prog == nil {
		var err error
		if prog, err = asm.Assemble(m); err != nil {
			return nil, Meta{}, nil, err
		}
	}
	img, err := asm.SaveImage(prog)
	if err != nil {
		return nil, Meta{}, nil, err
	}
	meta := Meta{
		Stats:     m.Stats,
		TileWords: m.TileWords(),
		Ops:       m.TotalOps(),
		Moves:     m.TotalMoves(),
		Pnops:     m.TotalPnops(),
		Words:     m.TotalWords(),
		Seed:      comp.Seed,
		Backend:   comp.Backend,
	}
	return prog, meta, img, nil
}

// materialize rebuilds a Result for the caller's graph from a stored
// entry: decode a copy of the image and rebuild the executable program
// against the caller's graph. Memory-tier entries were stored by this
// process under a byte-compared graph text, so no re-verification runs
// here; the disk path layers verify.CheckProgram on top (see
// loadDisk/lead).
func materialize(e *entry, req *Request, source string) (Result, error) {
	imgBytes := append([]byte(nil), e.image...)
	img, err := asm.LoadImage(imgBytes)
	if err != nil {
		return Result{}, err
	}
	prog, err := asm.ProgramFromImage(img, req.Graph, req.Grid)
	if err != nil {
		return Result{}, err
	}
	return Result{Program: prog, Image: imgBytes, Meta: e.meta, Hit: true, Source: source}, nil
}

// insert adds (or refreshes) an entry and evicts past capacity.
func (c *Cache) insert(sh *shard, e *entry) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[e.key]; ok {
		el.Value = e
		sh.lru.MoveToFront(el)
		return
	}
	sh.entries[e.key] = sh.lru.PushFront(e)
	for len(sh.entries) > c.perShard {
		back := sh.lru.Back()
		if back == nil {
			break
		}
		old := back.Value.(*entry)
		sh.lru.Remove(back)
		delete(sh.entries, old.key)
		c.cfg.Obs.Counter("mapcache.evict").Inc()
	}
}

// remove drops a key from the memory tier (poisoned-entry path).
func (c *Cache) remove(sh *shard, key string) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[key]; ok {
		sh.lru.Remove(el)
		delete(sh.entries, key)
	}
}

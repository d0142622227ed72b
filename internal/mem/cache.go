package mem

// This file models the timing side of the memory system: set-associative
// write-back caches with LRU replacement, chained into a hierarchy
// (L1I / L1D -> unified L2 -> DRAM). Data always lives in Memory; the
// caches only account for latency and hit/miss statistics, which is how
// gem5's atomic/timing "classic" memory system behaves.

// Level is anything that can service an access and report its latency in
// cycles.
type Level interface {
	// Access services a read (write=false) or write (write=true) of the
	// line containing addr and returns the total latency in cycles.
	Access(addr uint64, write bool) uint64
	// InvalidateAll drops all cached state (used on checkpoint restore).
	InvalidateAll()
}

// FixedLatency is a terminal memory level with a constant access latency,
// modelling DRAM.
type FixedLatency struct {
	Latency  uint64
	Accesses uint64
}

var _ Level = (*FixedLatency)(nil)

// Access implements Level.
func (f *FixedLatency) Access(addr uint64, write bool) uint64 {
	f.Accesses++
	return f.Latency
}

// InvalidateAll implements Level.
func (f *FixedLatency) InvalidateAll() {}

// CacheConfig describes the geometry and timing of one cache.
type CacheConfig struct {
	Name       string
	SizeBytes  int
	Assoc      int
	LineBytes  int
	HitLatency uint64
}

// CacheStats counts hit/miss/writeback events.
type CacheStats struct {
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

type cacheLine struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

// Cache is a set-associative write-back, write-allocate cache.
//
// Only a miss changes a set that holds no valid line, so the sets filled
// since the last invalidation are listed in touched (recorded on the miss
// path, never on a hit) and every other set is all zero. Invalidating,
// capturing and restoring the cache then cost the sets in use, not the
// geometry: the 2 MiB L2 has 4,096 sets and 32,768 lines.
type Cache struct {
	cfg      CacheConfig
	sets     [][]cacheLine
	numSets  int
	lineBits uint
	next     Level
	clock    uint64
	stats    CacheStats

	touched []int32 // sets filled since the last invalidation
	inUse   []bool  // by set: listed in touched

	// MRU fast path: the last line that hit. Sequential fetch streams and
	// stack traffic hit the same line many times in a row; checking it
	// first skips the set scan. lastLine is the full line address the
	// entry was filled for (tag+set), so a match is conclusive.
	last     *cacheLine
	lastLine uint64
}

var _ Level = (*Cache)(nil)

// NewCache builds a cache in front of next. The configuration must be a
// power-of-two geometry; NewCache panics otherwise since configurations
// are static program data, not runtime input.
func NewCache(cfg CacheConfig, next Level) *Cache {
	if cfg.LineBytes <= 0 || cfg.Assoc <= 0 || cfg.SizeBytes <= 0 {
		panic("mem: invalid cache config " + cfg.Name)
	}
	numSets := cfg.SizeBytes / (cfg.Assoc * cfg.LineBytes)
	if numSets <= 0 || numSets&(numSets-1) != 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic("mem: cache geometry must be a power of two: " + cfg.Name)
	}
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineBytes {
		lineBits++
	}
	sets := make([][]cacheLine, numSets)
	for i := range sets {
		sets[i] = make([]cacheLine, cfg.Assoc)
	}
	return &Cache{cfg: cfg, sets: sets, numSets: numSets, lineBits: lineBits, next: next,
		inUse: make([]bool, numSets)}
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Stats returns a copy of the hit/miss counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// Access implements Level.
func (c *Cache) Access(addr uint64, write bool) uint64 {
	lat, _ := c.AccessM(addr, write)
	return lat
}

// AccessM is Access plus a first-level hit/miss verdict, so callers
// (the CPU models feeding the profiler) can attribute misses to the
// requesting PC without re-deriving them from latency heuristics.
func (c *Cache) AccessM(addr uint64, write bool) (latency uint64, miss bool) {
	c.clock++
	lineAddr := addr >> c.lineBits
	if c.last != nil && c.lastLine == lineAddr && c.last.valid {
		c.stats.Hits++
		c.last.used = c.clock
		if write {
			c.last.dirty = true
		}
		return c.cfg.HitLatency, false
	}
	set := int(lineAddr) & (c.numSets - 1)
	tag := lineAddr >> 0
	lines := c.sets[set]
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			c.stats.Hits++
			lines[i].used = c.clock
			if write {
				lines[i].dirty = true
			}
			c.last, c.lastLine = &lines[i], lineAddr
			return c.cfg.HitLatency, false
		}
	}
	// Miss: fetch from the next level, allocate, evict LRU.
	c.stats.Misses++
	if !c.inUse[set] {
		c.inUse[set] = true
		c.touched = append(c.touched, int32(set))
	}
	latency = c.cfg.HitLatency + c.next.Access(addr, false)
	victim := 0
	for i := 1; i < len(lines); i++ {
		if !lines[i].valid {
			victim = i
			break
		}
		if lines[i].used < lines[victim].used {
			victim = i
		}
	}
	if lines[victim].valid && lines[victim].dirty {
		c.stats.Writebacks++
		latency += c.next.Access(lines[victim].tag<<c.lineBits, true)
	}
	lines[victim] = cacheLine{tag: tag, valid: true, dirty: write, used: c.clock}
	// Point the MRU entry at the filled line: the next access is likely to
	// the same line, and if the victim was the previous MRU line this also
	// keeps the entry from matching a stale tag.
	c.last, c.lastLine = &lines[victim], lineAddr
	return latency, true
}

// InvalidateAll implements Level.
func (c *Cache) InvalidateAll() {
	c.invalidate()
	c.next.InvalidateAll()
}

// invalidate drops this cache's lines (not the next level's), zeroing
// only the sets in use.
func (c *Cache) invalidate() {
	c.last, c.lastLine = nil, 0
	for _, i := range c.touched {
		clear(c.sets[i])
		c.inUse[i] = false
	}
	c.touched = c.touched[:0]
}

// CacheState is a copy of a cache's lines, LRU clock, MRU line and
// statistics, holding only the sets used since the last invalidation.
type CacheState struct {
	sets     []int32
	lines    []cacheLine // Assoc lines per entry of sets
	clock    uint64
	stats    CacheStats
	lastLine uint64
	haveLast bool
}

// Capture copies the cache's state in O(sets in use).
func (c *Cache) Capture() CacheState {
	st := CacheState{
		sets:  append([]int32(nil), c.touched...),
		lines: make([]cacheLine, 0, len(c.touched)*c.cfg.Assoc),
		clock: c.clock, stats: c.stats,
	}
	for _, i := range c.touched {
		st.lines = append(st.lines, c.sets[i]...)
	}
	if c.last != nil && c.last.valid {
		st.lastLine, st.haveLast = c.lastLine, true
	}
	return st
}

// Restore reinstates a captured state of a cache with the same geometry,
// in O(sets in use before and after).
func (c *Cache) Restore(st CacheState) {
	c.invalidate()
	a := c.cfg.Assoc
	for k, i := range st.sets {
		copy(c.sets[i], st.lines[k*a:(k+1)*a])
		c.inUse[i] = true
		c.touched = append(c.touched, i)
	}
	c.clock, c.stats = st.clock, st.stats
	if st.haveLast {
		lines := c.sets[int(st.lastLine)&(c.numSets-1)]
		for j := range lines {
			if lines[j].valid && lines[j].tag == st.lastLine {
				c.last, c.lastLine = &lines[j], st.lastLine
			}
		}
	}
}

// Hierarchy is the standard split-L1 / unified-L2 configuration the paper
// uses for its validation study ("a L1 instruction cache and a L1 data
// cache and as a L2 cache we used a unified L2 cache").
type Hierarchy struct {
	L1I  *Cache
	L1D  *Cache
	L2   *Cache
	DRAM *FixedLatency
}

// HierarchyConfig parameterizes NewHierarchy.
type HierarchyConfig struct {
	L1I, L1D, L2 CacheConfig
	DRAMLatency  uint64
}

// DefaultHierarchyConfig mirrors a small classic gem5 configuration.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:         CacheConfig{Name: "l1i", SizeBytes: 32 << 10, Assoc: 2, LineBytes: 64, HitLatency: 1},
		L1D:         CacheConfig{Name: "l1d", SizeBytes: 64 << 10, Assoc: 2, LineBytes: 64, HitLatency: 1},
		L2:          CacheConfig{Name: "l2", SizeBytes: 2 << 20, Assoc: 8, LineBytes: 64, HitLatency: 10},
		DRAMLatency: 100,
	}
}

// NewHierarchy builds the two-level hierarchy.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	dram := &FixedLatency{Latency: cfg.DRAMLatency}
	l2 := NewCache(cfg.L2, dram)
	return &Hierarchy{
		L1I:  NewCache(cfg.L1I, l2),
		L1D:  NewCache(cfg.L1D, l2),
		L2:   l2,
		DRAM: dram,
	}
}

// FetchLatency returns the latency of an instruction fetch at addr.
func (h *Hierarchy) FetchLatency(addr uint64) uint64 { return h.L1I.Access(addr, false) }

// FetchAccess is FetchLatency plus the L1I hit/miss verdict.
func (h *Hierarchy) FetchAccess(addr uint64) (uint64, bool) {
	return h.L1I.AccessM(addr, false)
}

// DataLatency returns the latency of a data access at addr.
func (h *Hierarchy) DataLatency(addr uint64, write bool) uint64 {
	return h.L1D.Access(addr, write)
}

// DataAccess is DataLatency plus the L1D hit/miss verdict.
func (h *Hierarchy) DataAccess(addr uint64, write bool) (uint64, bool) {
	return h.L1D.AccessM(addr, write)
}

// InvalidateAll drops all cached state.
func (h *Hierarchy) InvalidateAll() {
	h.L1I.InvalidateAll()
	h.L1D.InvalidateAll()
}

// HierarchyState is a copy of every level's state, DRAM's access count
// included.
type HierarchyState struct {
	L1I, L1D, L2 CacheState
	DRAMAccesses uint64
}

// Capture copies the hierarchy's state in O(sets in use).
func (h *Hierarchy) Capture() *HierarchyState {
	return &HierarchyState{
		L1I: h.L1I.Capture(), L1D: h.L1D.Capture(), L2: h.L2.Capture(),
		DRAMAccesses: h.DRAM.Accesses,
	}
}

// Restore reinstates a captured state of a hierarchy with the same
// configuration.
func (h *Hierarchy) Restore(st *HierarchyState) {
	h.L1I.Restore(st.L1I)
	h.L1D.Restore(st.L1D)
	h.L2.Restore(st.L2)
	h.DRAM.Accesses = st.DRAMAccesses
}

package mapcache

// GraphDigest exposes the graph half of the cache key to the external
// test package.
var GraphDigest = graphDigest

// Len returns the in-memory entry count.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

package mapcache

// GraphDigest exposes the graph half of the cache key to the external
// test package.
var GraphDigest = graphDigest

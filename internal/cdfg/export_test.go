package cdfg

// Unexported entry points and the reference implementations, for the
// external differential tests.
var (
	ParseText = parseText
	RefInterp = refInterp
	RefVerify = refVerify
)

// Graph returns the graph under construction without verification, so
// tests can build graphs Finish would reject.
func (b *Builder) Graph() *Graph { return b.g }

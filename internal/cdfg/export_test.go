package cdfg

// Unexported entry points and the reference implementations, for the
// external differential tests.
var (
	ParseText = parseText
	RefInterp = refInterp
	RefVerify = refVerify
)

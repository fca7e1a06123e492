package core

// The symbolic dataflow engine lives in internal/verify (the "dataflow"
// pass of the static verifier, its one pass that reads a mapping; the
// others read the assembled program), which imports this package for
// the Mapping types — so core reaches it through a registered hook
// instead of an import. The engine symbolically executes every block
// schedule and checks that each operand source delivers the value the
// CDFG prescribes. internal/verify installs the hook from its init, so
// only a binary that links the verifier (the cmds, the oracle, the
// tests) gets the dataflow post-condition; one that does not (e.g.
// examples/quickstart) maps without it.
var dataflowCheck func(*Mapping) error

// RegisterDataflowCheck installs the dataflow verifier implementation.
// It is called from internal/verify's init; later registrations replace
// earlier ones.
func RegisterDataflowCheck(f func(*Mapping) error) { dataflowCheck = f }

package core_test

// The in-package tests call the dataflow check hook and rely on
// core.Map's dataflow post-condition, both of which delegate to
// internal/verify through the hook registered in that package's init. core itself cannot
// import verify (verify imports core), but this external test file can —
// the blank import links the verifier into the combined test binary.
import _ "repro/internal/verify"

package interp

// Exports for the external interp_test package, whose differential suites
// import packages that themselves import interp (workloads, profile).

// GenProgram builds the seeded random differential program.
var GenProgram = genProgram

// RunMainOracle runs m's main() on the tree-walking oracle instead of the
// pre-decoded engine.
func RunMainOracle(m *Machine) (int32, error) { return engineOracle.runMain(m) }

package experiment

// Run is not part of the shim, but calls it from outside the scenario
// files: that use is flagged.
func Run() int { return New() }

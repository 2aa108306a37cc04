//go:build race

package engine

// raceEnabled reports that this binary was built with the race detector;
// the allocation gates skip themselves there — the detector's
// instrumentation allocates, so the counts would describe the
// instrumentation, not the engine.
const raceEnabled = true

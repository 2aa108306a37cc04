//go:build race

package server

// raceEnabled reports that this binary was built with the race detector;
// the allocation gate and the pushdown speedup check skip themselves there
// — the detector allocates and multiplies CPU-bound engine work, so the
// numbers describe the instrumentation, not the server.
const raceEnabled = true

package server

// SetTestHook installs fn at the coordinator's named protocol points, for
// the crash tests in package server_test.
func SetTestHook(fn func(point string)) { testHook.Store(&fn) }

// WaitFor exports waitFor to package server_test.
var WaitFor = waitFor

// MintGID mints one gid the way the coordinator of a cross-shard
// transaction does, for the node tests in package server_test.
func (s *Server) MintGID() string { return s.sharding.Load().gidFor(s.replEpoch()) }

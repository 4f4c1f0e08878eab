// Package model defines the formal model of the paper "The Weakest Failure
// Detectors to Solve Certain Fundamental Problems in Distributed Computing"
// (Delporte-Gallet et al., PODC 2004), Section 2: processes, failure patterns,
// environments, failure-detector histories, and the specifications of the
// failure detectors Sigma, Omega, FS and Psi.
//
// The package is purely descriptive: it contains no protocol code. It is the
// shared vocabulary of the runtime (internal/net), the failure-detector
// implementations (internal/fd, internal/fdimpl) and the specification
// checkers used by tests and by the extraction constructions
// (internal/extract).
//
// Times are logical. The paper assumes a discrete global clock that processes
// cannot read; here Time is an int64 tick used by failure patterns and
// recorded histories. The runtime advances it on every send and delivery
// (net.Clock) only for bookkeeping.
package model

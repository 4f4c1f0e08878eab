// Package fdimpl contains message-passing implementations of the failure
// detectors used in the paper, built only from communication over the
// asynchronous runtime (internal/net):
//
//   - MajoritySigma: the Introduction's "Σ ex nihilo" construction — each
//     process periodically sends join-quorum messages and adopts any majority
//     of responders as its quorum. It is a correct Σ exactly in
//     majority-correct environments, which is the paper's point: with a
//     correct majority Σ comes for free, so the (Ω, Σ) result generalises the
//     classical majority-only result.
//   - HeartbeatOmega: a timeout-based Ω that elects the lowest-id process
//     that is still heartbeating. It converges when message delays are
//     eventually bounded (true of the in-memory runtime), a partial-synchrony
//     assumption the asynchronous model itself does not grant.
//   - HeartbeatFS: a timeout-based failure signal that turns red permanently
//     once any process stops heartbeating. Its accuracy (never red without a
//     crash) also rests on the partial-synchrony assumption; the oracle FS in
//     internal/fd is the assumption-free reference.
//
// All intervals and timeouts are measured on the network's virtual clock, so
// a heartbeat round costs no wall-clock time. Each detector is one periodic
// net.Service per process: its body holds the detector's state and pulls
// the fires of a ticker bound to the service's task. The dispatcher
// delivers a fire only once every task is parked, so virtual time cannot run
// ahead of the detectors by construction — the partial-synchrony assumption
// they need survives time being simulated. A service stops at its process's
// crash; callers Stop the rest (or close the network) when done.
//
// The whole family is also packaged as the "heartbeat" class of
// fd.DefaultRegistry (see heartbeat.go), so scenario sweeps and explore runs
// can compare the implemented detectors against the oracles on one grid.
package fdimpl

import (
	"sync"
	"time"

	"weakestfd/internal/fd"
	"weakestfd/internal/model"
	"weakestfd/internal/net"
)

// MajoritySigma is a message-based Σ for majority-correct environments.
type MajoritySigma struct {
	ep  *net.Endpoint
	svc *net.Service

	mu     sync.Mutex
	quorum model.ProcessSet
}

const sigmaInstance = "fdimpl.sigma"

// StartMajoritySigma starts the join-quorum protocol at ep's process, probing
// every interval of virtual time. The initial quorum is the full process set
// (trivially intersecting with everything).
//
// The probe ticker and the first probe are issued synchronously, before
// Start returns, so the first deadline and the probe's send time are fixed by
// the caller's step, not by when the loop task is first granted. The loop is
// the only reader of its instance — do not TryRecv from it elsewhere. Start a
// whole ensemble under Network.Freeze/Thaw for a simultaneous boot.
func StartMajoritySigma(ep *net.Endpoint, interval time.Duration) *MajoritySigma {
	s := &MajoritySigma{ep: ep, quorum: model.AllProcesses(ep.N())}
	ticker := ep.NewTicker(interval)
	ep.Broadcast(sigmaInstance, "probe", sigmaProbe{Round: 0})
	s.svc = ep.Periodic("fdimpl.sigma", ticker, s.run)
	return s
}

// Sample implements fd.Sigma: it returns the most recent majority of
// responders (or the full set before the first round completes).
func (s *MajoritySigma) Sample() model.ProcessSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quorum.Clone()
}

// Stop terminates the background protocol.
func (s *MajoritySigma) Stop() { s.svc.Stop() }

type sigmaProbe struct{ Round int }
type sigmaAck struct{ Round int }

func (s *MajoritySigma) run(next func() (time.Duration, bool)) {
	round := 0
	acked := map[int]model.ProcessSet{}
	majority := s.ep.N()/2 + 1

	handle := func(msg net.Message) {
		switch msg.Type {
		case "probe":
			probe := msg.Payload.(sigmaProbe)
			s.ep.Send(msg.From, sigmaInstance, "ack", sigmaAck{Round: probe.Round})
		case "ack":
			// Accept acks for the previous round too: a peer that answers a
			// probe at its own next tick produces an ack that systematically
			// reaches us one round late (all tickers share virtual
			// deadlines), so an exact-round check would discard almost every
			// ack and leave quorum formation to a scheduling race.
			ack := msg.Payload.(sigmaAck)
			if ack.Round < round-1 || ack.Round > round {
				return
			}
			set, ok := acked[ack.Round]
			if !ok {
				set = model.NewProcessSet(s.ep.ID())
				acked[ack.Round] = set
			}
			set.Add(msg.From)
			if set.Len() >= majority {
				s.mu.Lock()
				s.quorum = set.Clone()
				s.mu.Unlock()
			}
		}
	}

	// Drain synchronously before advancing the round: TryRecv reads the
	// mailbox ring directly, so everything the dispatcher has delivered up to
	// this tick is processed first. The run-to-quiescence handshake paces
	// rounds by processing progress.
	tick := func() {
		for {
			msg, ok := s.ep.TryRecv(sigmaInstance)
			if !ok {
				break
			}
			handle(msg)
		}
		delete(acked, round-1)
		round++
		s.ep.Broadcast(sigmaInstance, "probe", sigmaProbe{Round: round})
	}

	for _, ok := next(); ok; _, ok = next() {
		tick()
	}
}

// HeartbeatOmega is a timeout-based Ω: the leader is the lowest-id process
// that has heartbeated within the timeout (the local process always trusts
// itself).
type HeartbeatOmega struct {
	ep      *net.Endpoint
	svc     *net.Service
	timeout time.Duration
	start   time.Duration

	mu     sync.Mutex
	leader model.ProcessID
}

const omegaInstance = "fdimpl.omega"

// StartHeartbeatOmega starts heartbeating at ep's process. timeout should be
// several times the heartbeat interval plus the maximum expected message
// delay, all in virtual time. Setup (ticker, first heartbeat) happens
// synchronously, before Start returns; the loop is the only reader of its
// instance — do not TryRecv from it elsewhere. Start a whole ensemble under
// Network.Freeze/Thaw for a simultaneous boot.
func StartHeartbeatOmega(ep *net.Endpoint, interval, timeout time.Duration) *HeartbeatOmega {
	o := &HeartbeatOmega{ep: ep, timeout: timeout, start: ep.VirtualNow()}
	ticker := ep.NewTicker(interval)
	ep.Broadcast(omegaInstance, "hb", nil)
	o.svc = ep.Periodic("fdimpl.omega", ticker, o.run)
	return o
}

// Sample implements fd.Omega.
func (o *HeartbeatOmega) Sample() model.ProcessID {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.leader
}

// Stop terminates the background protocol.
func (o *HeartbeatOmega) Stop() { o.svc.Stop() }

func (o *HeartbeatOmega) run(next func() (time.Duration, bool)) {
	lastHeard := make(map[model.ProcessID]time.Duration)

	recompute := func(now time.Duration) {
		leader := o.ep.ID()
		for i := 0; i < o.ep.N(); i++ {
			p := model.ProcessID(i)
			if p == o.ep.ID() {
				// The local process always trusts itself; it is considered
				// below via the initial value of leader.
				continue
			}
			heard, ok := lastHeard[p]
			alive := (ok && now-heard <= o.timeout) || (!ok && now-o.start <= o.timeout)
			if alive && p < leader {
				leader = p
			}
		}
		o.mu.Lock()
		o.leader = leader
		o.mu.Unlock()
	}

	// Drain synchronously before recomputing: TryRecv reads the mailbox ring
	// directly, so freshness reflects everything the dispatcher has delivered
	// up to this tick. "now" is the fire deadline — the dispatcher grants the
	// woken task before popping any further event, so the virtual clock the
	// tick was read from cannot have moved past it.
	tick := func(now time.Duration) {
		for {
			msg, ok := o.ep.TryRecv(omegaInstance)
			if !ok {
				break
			}
			if msg.Type == "hb" {
				lastHeard[msg.From] = now
			}
		}
		o.ep.Broadcast(omegaInstance, "hb", nil)
		recompute(now)
	}

	for now, ok := next(); ok; now, ok = next() {
		tick(now)
	}
}

// HeartbeatFS is a timeout-based failure signal: once any process has been
// silent for longer than the timeout (after an initial grace period), the
// signal turns red permanently.
type HeartbeatFS struct {
	ep      *net.Endpoint
	svc     *net.Service
	timeout time.Duration
	start   time.Duration

	mu  sync.Mutex
	red bool
}

const fsInstance = "fdimpl.fs"

// StartHeartbeatFS starts heartbeating at ep's process. Setup (ticker, first
// heartbeat) happens synchronously, before Start returns; the loop is the
// only reader of its instance — do not TryRecv from it elsewhere. Start a
// whole ensemble under Network.Freeze/Thaw for a simultaneous boot.
func StartHeartbeatFS(ep *net.Endpoint, interval, timeout time.Duration) *HeartbeatFS {
	f := &HeartbeatFS{ep: ep, timeout: timeout, start: ep.VirtualNow()}
	ticker := ep.NewTicker(interval)
	ep.Broadcast(fsInstance, "hb", nil)
	f.svc = ep.Periodic("fdimpl.fs", ticker, f.run)
	return f
}

// Sample implements fd.FS.
func (f *HeartbeatFS) Sample() model.FSValue {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.red {
		return model.Red
	}
	return model.Green
}

// Stop terminates the background protocol.
func (f *HeartbeatFS) Stop() { f.svc.Stop() }

func (f *HeartbeatFS) run(next func() (time.Duration, bool)) {
	lastHeard := make(map[model.ProcessID]time.Duration)
	grace := 2 * f.timeout

	// Drain synchronously before the timeout check: TryRecv reads the
	// mailbox ring directly, so the check runs against every heartbeat the
	// dispatcher has delivered up to this tick. The signal is sticky, so a
	// single stale window would falsely turn it red forever — this is the
	// path that must not race.
	tick := func(now time.Duration) {
		for {
			msg, ok := f.ep.TryRecv(fsInstance)
			if !ok {
				break
			}
			if msg.Type == "hb" {
				lastHeard[msg.From] = now
			}
		}
		f.ep.Broadcast(fsInstance, "hb", nil)
		if now-f.start < grace {
			return
		}
		for i := 0; i < f.ep.N(); i++ {
			p := model.ProcessID(i)
			if p == f.ep.ID() {
				continue
			}
			heard, ok := lastHeard[p]
			if !ok {
				heard = f.start + grace
			}
			if now-heard > f.timeout {
				f.mu.Lock()
				f.red = true
				f.mu.Unlock()
			}
		}
	}

	for now, ok := next(); ok; now, ok = next() {
		tick(now)
	}
}

var (
	_ fd.Sigma = (*MajoritySigma)(nil)
	_ fd.Omega = (*HeartbeatOmega)(nil)
	_ fd.FS    = (*HeartbeatFS)(nil)
)

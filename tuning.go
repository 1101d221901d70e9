package mpj

import (
	"fmt"
	"os"

	"mpj/internal/device"
	"mpj/internal/prof"
	"mpj/internal/transport"
)

// resolveProf resolves a job's instrumentation, once, in the process that
// launches the job: JobConfig.Prof, else this process's MPJ_PROF, else
// off. The value is checked here, so a malformed one fails the job before
// any daemon is contacted, and the error names the field or variable it
// came from. Slaves take the result from their spec and read no variable.
func resolveProf(cfg JobConfig) (prof.Spec, error) {
	if cfg.Prof != "" {
		s, err := prof.ParseSpec(cfg.Prof)
		if err != nil {
			return s, fmt.Errorf("mpj: JobConfig.Prof: %w", err)
		}
		return s, nil
	}
	s, err := prof.ParseSpec(os.Getenv("MPJ_PROF"))
	if err != nil {
		return s, fmt.Errorf("mpj: MPJ_PROF: %w", err)
	}
	return s, nil
}

// serveProf starts the /debug/vars endpoint this process's MPJ_PROF_ADDR
// asks for, if any, and returns s with the counters on: an endpoint with
// nothing behind it would be useless. The address is a deployment setting
// of each process, not part of a job's instrumentation.
func serveProf(s prof.Spec) (prof.Spec, error) {
	addr := os.Getenv("MPJ_PROF_ADDR")
	if addr == "" {
		return s, nil
	}
	s.Counters = true
	prof.PublishMPJ()
	if _, err := prof.Serve(addr); err != nil {
		return s, fmt.Errorf("mpj: MPJ_PROF_ADDR: %w", err)
	}
	return s, nil
}

// openDevice opens rank's device over tr with a recorder when s asks for
// one, tracked for the /debug/vars endpoint with the rank's status.
func openDevice(tr transport.Transport, rank int, s prof.Spec) (*device.Device, error) {
	rec := prof.New(rank, s)
	dev, err := device.Open(tr, device.WithProfiler(rec))
	if err != nil {
		return nil, err
	}
	if rec != nil {
		rec.SetStatus(profStatus(dev, s))
		prof.Track(rec)
	}
	return dev, nil
}

// profStatus builds the status callback served next to a rank's counters
// on the /debug/vars endpoint: the job's instrumentation the rank runs
// with, the device's failure-registry view, the fault-tolerance state an
// operator wants next to the traffic numbers, the process's scheduler size with
// what it was derived from (baseProcs 0: not a process slave, or
// GOMAXPROCS was in its environment), the road each peer's rendezvous
// payloads take to this rank ("memory", "stream", "pull", "wire", "wire:
// <why the system refused a pull>") with the counts of payloads that took
// the co-host roads, beside it the host areas' counts and each
// communicator's allreduce path ("host", "schedule", "host refused: <why>";
// see core's hostarea.go), and how frames to each peer travel ("memory",
// "ring", "socket", "socket: <why the ring was refused>").
func profStatus(dev *device.Device, s prof.Spec) func() any {
	config := map[string]any{"prof": s.String()}
	return func() any {
		sched := device.Scheduler()
		return map[string]any{
			"config":      config,
			"failedRanks": dev.FailedRanks(),
			"failEpoch":   dev.FailEpoch(),
			"gomaxprocs":  sched.GOMAXPROCS,
			"baseProcs":   sched.BaseProcs,
			"procRanks":   sched.ProcRanks,
			"hostRanks":   sched.HostRanks,
			"pollFloor":   sched.PollFloor,
			"peerPaths":   dev.PeerPaths(),
			"rendezvous":  rendezvousCounts(dev.Stats()),
			"hostArea":    hostAreaCounts(dev.Profiler().Snapshot()),
			"allreduce":   dev.Profiler().AllreducePaths(),
			"frameMedia":  dev.FrameMedia(),
		}
	}
}

// hostAreaCounts is the status entry of the host areas: allreduces that
// folded through one, the chunks they walked, the bytes this rank copied
// into the areas, and the device's waits at their barriers — all, those
// an oversubscribed host's yield-poll ended, and those that went on to the
// helpers' futex sleep (see prof.Snapshot).
func hostAreaCounts(s prof.Snapshot) map[string]int64 {
	return map[string]int64{
		"ops":     s.HostOps,
		"chunks":  s.HostChunks,
		"bytes":   s.HostBytes,
		"waits":   s.HostWaits,
		"yielded": s.HostYielded,
		"slept":   s.HostSlept,
	}
}

// rendezvousCounts is the status entry of the co-host rendezvous roads:
// payloads pulled or streamed out of a co-host sender, pulls refused,
// streams among them, and streams taken over by a pull or by DATA.
func rendezvousCounts(st *device.Stats) map[string]int64 {
	return map[string]int64{
		"pulled":          st.Pulled.Load(),
		"pullRefused":     st.PullRefused.Load(),
		"streamed":        st.Streamed.Load(),
		"streamTakeovers": st.StreamTakeovers.Load(),
	}
}

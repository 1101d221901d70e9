package mpj

import (
	"fmt"
	"os"

	"mpj/internal/core"
	"mpj/internal/device"
	"mpj/internal/prof"
	"mpj/internal/transport"
)

// resolveTuning resolves a job's tuning, once, in the process that
// launches the job: each value from its JobConfig field, else from this
// process's MPJ_* variable, else its default. Every value is checked
// here, so a malformed one fails the job before any daemon is contacted,
// and the error names the field or variable it came from. Slaves take
// the result from their spec and read no variable.
func resolveTuning(cfg JobConfig) (core.Tuning, error) {
	var t core.Tuning
	var err error
	switch {
	case cfg.EagerLimit < 0:
		return t, fmt.Errorf("mpj: JobConfig.EagerLimit must be non-negative, got %d", cfg.EagerLimit)
	case cfg.EagerLimit > 0:
		t.EagerLimit = cfg.EagerLimit
	default:
		if t.EagerLimit, err = device.ParseEagerLimit(os.Getenv("MPJ_EAGER_LIMIT")); err != nil {
			return t, fmt.Errorf("mpj: MPJ_EAGER_LIMIT: %w", err)
		}
		if t.EagerLimit == 0 {
			t.EagerLimit = device.DefaultEagerLimit
		}
	}
	if cfg.Prof != "" {
		if t.Prof, err = prof.ParseSpec(cfg.Prof); err != nil {
			return t, fmt.Errorf("mpj: JobConfig.Prof: %w", err)
		}
	} else if t.Prof, err = prof.ParseSpec(os.Getenv("MPJ_PROF")); err != nil {
		return t, fmt.Errorf("mpj: MPJ_PROF: %w", err)
	}
	if t.EpochTimeout, err = core.ParseEpochTimeout(os.Getenv("MPJ_RMA_TIMEOUT")); err != nil {
		return t, fmt.Errorf("mpj: MPJ_RMA_TIMEOUT: %w", err)
	}
	return t, nil
}

// serveProf starts the /debug/vars endpoint this process's MPJ_PROF_ADDR
// asks for, if any, and returns t with the counters on: an endpoint with
// nothing behind it would be useless. The address is a deployment setting
// of each process, not part of a job's tuning.
func serveProf(t core.Tuning) (core.Tuning, error) {
	addr := os.Getenv("MPJ_PROF_ADDR")
	if addr == "" {
		return t, nil
	}
	t.Prof.Counters = true
	prof.PublishMPJ()
	if _, err := prof.Serve(addr); err != nil {
		return t, fmt.Errorf("mpj: MPJ_PROF_ADDR: %w", err)
	}
	return t, nil
}

// openDevice opens rank's device over tr with the job's tuning: its eager
// limit, and a recorder when t.Prof asks for one, tracked for the
// /debug/vars endpoint with the rank's status.
func openDevice(tr transport.Transport, rank int, t core.Tuning) (*device.Device, error) {
	var opts []device.Option
	if t.EagerLimit > 0 {
		opts = append(opts, device.WithEagerLimit(t.EagerLimit))
	}
	rec := prof.New(rank, t.Prof)
	if rec != nil {
		opts = append(opts, device.WithProfiler(rec))
	}
	dev, err := device.Open(tr, opts...)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		rec.SetStatus(profStatus(dev, t))
		prof.Track(rec)
	}
	return dev, nil
}

// profStatus builds the status callback served next to a rank's counters
// on the /debug/vars endpoint: the job's tuning the rank runs with, the
// device's failure-registry view, the fault-tolerance state an operator
// wants next to the traffic numbers, the process's scheduler size with
// what it was derived from (baseProcs 0: not a process slave, or
// GOMAXPROCS was in its environment), the road each peer's rendezvous
// payloads take to this rank ("memory", "stream", "pull", "wire", "wire:
// <why the system refused a pull>") with the counts of payloads that took
// the co-host roads, beside it the host areas' counts and each
// communicator's allreduce path ("host", "schedule", "host refused: <why>";
// see core's hostarea.go), and how frames to each peer travel ("memory",
// "ring", "socket", "socket: <why the ring was refused>").
func profStatus(dev *device.Device, t core.Tuning) func() any {
	config := map[string]any{
		"eagerLimit": t.EagerLimit,
		"prof":       t.Prof.String(),
		"rmaTimeout": t.EpochTimeout.String(),
	}
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
// folded through one, the chunks they walked and the bytes this rank copied
// into the areas.
func hostAreaCounts(s prof.Snapshot) map[string]int64 {
	return map[string]int64{
		"ops":    s.HostOps,
		"chunks": s.HostChunks,
		"bytes":  s.HostBytes,
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

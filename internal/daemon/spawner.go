package daemon

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"net"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"mpj/internal/device"
)

// SlaveSpec tells a daemon everything needed to start one slave process of
// a job — the argument of the paper's runTask/createSlave interaction.
type SlaveSpec struct {
	JobID uint64
	Rank  int
	Size  int
	App   string   // application name, resolved in the slave's registry
	Args  []string // application arguments

	// Device selects the slave's transport ("chan", "tcp", "hyb"). Empty
	// defers to the slave's MPJ_DEVICE environment (letting a daemon set
	// a host-wide default) and finally the built-in default.
	Device string

	// EagerLimit overrides the device's eager/rendezvous protocol
	// threshold in bytes. Zero defers to the slave's MPJ_EAGER_LIMIT
	// environment and finally the built-in default.
	EagerLimit int

	// CollAlg forces the collective algorithm family ("classic", "ring",
	// "hier"; "auto" restores the size-based choice). Empty
	// defers to the slave's MPJ_COLL_ALG environment and finally the
	// automatic selection. It must be consistent across the job's ranks,
	// which is why it travels in the spec rather than relying on each
	// host's daemon environment agreeing.
	CollAlg string

	// Prof enables the instrumentation layer on the slave ("counters" or
	// "trace:<path-prefix>"; see internal/prof.ParseSpec). Empty defers
	// to the slave's MPJ_PROF environment and finally off.
	Prof string

	MasterAddr string // the client's bootstrap server
	OutputAddr string // the client's output collector ("" = none)
	EventAddr  string // the client's event receiver ("" = none)

	Binary  string // executable to spawn (process spawner only)
	LeaseMs int64  // job lease duration granted by this daemon

	// Elastic switches the job to the elastic failure model: a slave
	// death no longer destroys its local siblings or raises MPJAbort.
	// Instead the daemon records the dead rank in the job's failure
	// registry and serves the verdict through Heartbeat and RenewJob
	// replies, so survivors observe a typed per-rank failure and can
	// recover with Shrink/Spawn. Off by default: the paper's §3.3
	// all-or-nothing semantics stay the non-elastic behaviour.
	Elastic bool

	// LivenessMs is the per-rank liveness lease duration for elastic
	// jobs: a slave that stops heartbeating for this long is declared
	// dead. Zero picks the daemon default (10s).
	LivenessMs int64

	// Epoch is the mesh generation this slave bootstraps into. Zero means
	// the job's original mesh (JobID doubles as its epoch); a non-zero
	// epoch marks a replacement slave spawned by Comm.Spawn, which
	// bootstraps against the scoped spawn master in MasterAddr instead of
	// the client's.
	Epoch uint64

	// SpawnBase is the number of surviving ranks in a spawn epoch: ranks
	// [0, SpawnBase) are survivors, [SpawnBase, Size) are replacements.
	// Only meaningful when Epoch is non-zero.
	SpawnBase int
}

// Env encodes the spec as MPJ_* environment variables for a spawned
// process, the analogue of the daemon passing ids into the java command
// that starts MPJSlave. MPJ_DEVICE is emitted only when the spec selects a
// device, so a daemon-level MPJ_DEVICE default survives inheritance.
func (s SlaveSpec) Env(daemonAddr string) []string {
	env := []string{
		"MPJ_SLAVE=1",
		"MPJ_JOB=" + strconv.FormatUint(s.JobID, 10),
		"MPJ_RANK=" + strconv.Itoa(s.Rank),
		"MPJ_SIZE=" + strconv.Itoa(s.Size),
		"MPJ_APP=" + s.App,
		"MPJ_ARGS=" + strings.Join(s.Args, "\x1f"),
		"MPJ_MASTER=" + s.MasterAddr,
		"MPJ_DAEMON=" + daemonAddr,
	}
	if s.Device != "" {
		env = append(env, "MPJ_DEVICE="+s.Device)
	}
	if s.EagerLimit > 0 {
		env = append(env, "MPJ_EAGER_LIMIT="+strconv.Itoa(s.EagerLimit))
	}
	if s.CollAlg != "" {
		env = append(env, "MPJ_COLL_ALG="+s.CollAlg)
	}
	if s.Prof != "" {
		env = append(env, "MPJ_PROF="+s.Prof)
	}
	if s.Elastic {
		env = append(env, "MPJ_ELASTIC=1")
	}
	if s.LivenessMs > 0 {
		env = append(env, "MPJ_LIVENESS_MS="+strconv.FormatInt(s.LivenessMs, 10))
	}
	if s.Epoch != 0 {
		env = append(env,
			"MPJ_EPOCH="+strconv.FormatUint(s.Epoch, 10),
			"MPJ_SPAWN_BASE="+strconv.Itoa(s.SpawnBase),
		)
	}
	return env
}

// mergeEnv overlays the spec variables on an inherited environment,
// dropping inherited entries that the overlay redefines so the spawned
// slave sees exactly one value per key regardless of getenv semantics.
func mergeEnv(base, overlay []string) []string {
	set := make(map[string]bool, len(overlay))
	for _, kv := range overlay {
		if i := strings.IndexByte(kv, '='); i > 0 {
			set[kv[:i]] = true
		}
	}
	merged := make([]string, 0, len(base)+len(overlay))
	for _, kv := range base {
		if i := strings.IndexByte(kv, '='); i > 0 && set[kv[:i]] {
			continue
		}
		merged = append(merged, kv)
	}
	return append(merged, overlay...)
}

// ParseSlaveEnv reconstructs a SlaveSpec from the environment of a spawned
// slave process. get is usually os.Getenv.
func ParseSlaveEnv(get func(string) string) (SlaveSpec, string, error) {
	if get("MPJ_SLAVE") != "1" {
		return SlaveSpec{}, "", fmt.Errorf("daemon: not a slave environment")
	}
	job, err := strconv.ParseUint(get("MPJ_JOB"), 10, 64)
	if err != nil {
		return SlaveSpec{}, "", fmt.Errorf("daemon: MPJ_JOB: %w", err)
	}
	rank, err := strconv.Atoi(get("MPJ_RANK"))
	if err != nil {
		return SlaveSpec{}, "", fmt.Errorf("daemon: MPJ_RANK: %w", err)
	}
	size, err := strconv.Atoi(get("MPJ_SIZE"))
	if err != nil {
		return SlaveSpec{}, "", fmt.Errorf("daemon: MPJ_SIZE: %w", err)
	}
	var args []string
	if raw := get("MPJ_ARGS"); raw != "" {
		args = strings.Split(raw, "\x1f")
	}
	spec := SlaveSpec{
		JobID:      job,
		Rank:       rank,
		Size:       size,
		App:        get("MPJ_APP"),
		Args:       args,
		Device:     get("MPJ_DEVICE"),
		Prof:       get("MPJ_PROF"),
		MasterAddr: get("MPJ_MASTER"),
	}
	limit, err := device.ParseEagerLimit(get("MPJ_EAGER_LIMIT"))
	if err != nil {
		return SlaveSpec{}, "", fmt.Errorf("daemon: MPJ_EAGER_LIMIT: %w", err)
	}
	spec.EagerLimit = limit
	spec.Elastic = get("MPJ_ELASTIC") == "1"
	if raw := get("MPJ_LIVENESS_MS"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return SlaveSpec{}, "", fmt.Errorf("daemon: MPJ_LIVENESS_MS: %w", err)
		}
		spec.LivenessMs = ms
	}
	if raw := get("MPJ_EPOCH"); raw != "" {
		epoch, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return SlaveSpec{}, "", fmt.Errorf("daemon: MPJ_EPOCH: %w", err)
		}
		spec.Epoch = epoch
		base, err := strconv.Atoi(get("MPJ_SPAWN_BASE"))
		if err != nil {
			return SlaveSpec{}, "", fmt.Errorf("daemon: MPJ_SPAWN_BASE: %w", err)
		}
		spec.SpawnBase = base
	}
	return spec, get("MPJ_DAEMON"), nil
}

// Slave is a running slave under daemon control.
type Slave interface {
	// ID identifies the slave within its daemon.
	ID() string
	// Wait blocks until the slave exits, returning its failure if any.
	Wait() error
	// Destroy kills the slave. It is idempotent and must cause Wait to
	// return.
	Destroy()
}

// Spawner creates slaves. The daemon is agnostic to how: as OS processes
// (the JVM analogue) or as in-process goroutines (for hermetic tests).
type Spawner interface {
	Spawn(spec SlaveSpec, daemonAddr string) (Slave, error)
}

// OutLine is one line of slave output forwarded to the client, which
// merges the streams of all slaves non-deterministically onto its own
// stdout, as §2 of the paper specifies.
type OutLine struct {
	JobID  uint64
	Rank   int
	Stream string // "stdout" or "stderr"
	Text   string
}

// procSlave is an OS-process slave.
type procSlave struct {
	id  string
	cmd *exec.Cmd

	once sync.Once
	err  error
	done chan struct{}
}

func (p *procSlave) ID() string { return p.id }

func (p *procSlave) Wait() error {
	<-p.done
	return p.err
}

func (p *procSlave) Destroy() {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Kill()
	}
}

// ProcSpawner spawns slaves as OS processes running spec.Binary with the
// slave environment, capturing their output for forwarding — exactly the
// paper's "exec java MPJSlave" with stream routing.
type ProcSpawner struct{}

// Spawn starts the slave process.
func (ProcSpawner) Spawn(spec SlaveSpec, daemonAddr string) (Slave, error) {
	if spec.Binary == "" {
		return nil, fmt.Errorf("daemon: spec has no binary to spawn")
	}
	cmd := exec.Command(spec.Binary, spec.Args...)
	cmd.Env = mergeEnv(cmd.Environ(), spec.Env(daemonAddr))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("daemon: stdout pipe: %w", err)
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("daemon: stderr pipe: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("daemon: starting %s: %w", spec.Binary, err)
	}
	p := &procSlave{
		id:   fmt.Sprintf("proc-%d-%d", spec.JobID, spec.Rank),
		cmd:  cmd,
		done: make(chan struct{}),
	}

	var fwd *outputForwarder
	if spec.OutputAddr != "" {
		fwd, err = dialOutput(spec.OutputAddr)
		if err != nil {
			// Output forwarding is best-effort: the job still runs.
			fwd = nil
		}
	}
	var lines sync.WaitGroup
	for stream, rd := range map[string]interface{ Read([]byte) (int, error) }{
		"stdout": stdout, "stderr": stderr,
	} {
		stream := stream
		rd := rd
		lines.Add(1)
		go func() {
			defer lines.Done()
			sc := bufio.NewScanner(rd)
			sc.Buffer(make([]byte, 64<<10), 1<<20)
			for sc.Scan() {
				if fwd != nil {
					fwd.send(OutLine{JobID: spec.JobID, Rank: spec.Rank, Stream: stream, Text: sc.Text()})
				}
			}
		}()
	}
	go func() {
		// Readers first: cmd.Wait closes the pipes as soon as the process
		// is gone, and a scanner still holding unread bytes would lose the
		// slave's last line. The pipes reach EOF when the slave exits (or
		// is destroyed), so this cannot outlast it.
		lines.Wait()
		err := cmd.Wait()
		if fwd != nil {
			fwd.close()
		}
		p.once.Do(func() {
			p.err = err
			close(p.done)
		})
	}()
	return p, nil
}

// outputForwarder streams OutLines to the client's collector.
type outputForwarder struct {
	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
}

func dialOutput(addr string) (*outputForwarder, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &outputForwarder{conn: conn, enc: gob.NewEncoder(conn)}, nil
}

func (f *outputForwarder) send(line OutLine) {
	f.mu.Lock()
	defer f.mu.Unlock()
	_ = f.enc.Encode(line) // best effort: a dead collector must not kill the slave
}

func (f *outputForwarder) close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.conn.Close()
}

// funcSlave is a goroutine slave used by FuncSpawner.
type funcSlave struct {
	id   string
	stop chan struct{}
	once sync.Once

	done chan struct{}
	err  error
}

func (s *funcSlave) ID() string { return s.id }
func (s *funcSlave) Wait() error {
	<-s.done
	return s.err
}
func (s *funcSlave) Destroy() {
	s.once.Do(func() { close(s.stop) })
}

// FuncSpawner runs slaves as goroutines inside the daemon's process: the
// hermetic substitute for JVM creation used by tests and simulations. The
// supplied run function receives a stop channel closed on Destroy and
// must honour it at its next opportunity.
type FuncSpawner struct {
	Run func(spec SlaveSpec, daemonAddr string, stop <-chan struct{}) error
}

// Spawn launches the slave goroutine.
func (f FuncSpawner) Spawn(spec SlaveSpec, daemonAddr string) (Slave, error) {
	if f.Run == nil {
		return nil, fmt.Errorf("daemon: FuncSpawner has no Run function")
	}
	s := &funcSlave{
		id:   fmt.Sprintf("go-%d-%d", spec.JobID, spec.Rank),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.err = f.Run(spec, daemonAddr, s.stop)
	}()
	return s, nil
}

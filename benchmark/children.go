package main

// One workload per process. The contract's driver starts a fresh process
// for every run, and the numbers only mean the same here if this program
// does too: a launcher that has already run another workload has a larger
// heap, a higher resident-set peak and leftover timers, and goroutine
// ranks live in it. So an invocation that covers several workloads runs
// each in a child process of itself and merges their reports.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// children tracks running child benchmarks so an interrupt can stop them.
var children struct {
	sync.Mutex
	live map[*exec.Cmd]bool
}

// stopChildren asks every child to tear down (each closes its own daemons
// and slaves on SIGTERM) and waits for them to go.
func stopChildren() {
	children.Lock()
	live := make([]*exec.Cmd, 0, len(children.live))
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		_ = c.Process.Signal(syscall.SIGTERM) // already gone is fine
	}
	deadline := time.Now().Add(reapWait)
	for time.Now().Before(deadline) {
		children.Lock()
		n := len(children.live)
		children.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, c := range live {
		_ = c.Process.Kill()
	}
}

// runChild runs one workload in a fresh process of this binary, passing
// its table through to standard output, and returns its report and the
// outcome it printed last.
func runChild(o options, w workload, trace int, dir string) (*report, *outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	args := []string{
		"-workload", w.Name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace), "-out", dir,
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*exec.Cmd]bool)
	}
	children.live[cmd] = true
	children.Unlock()

	// Everything but the child's closing JSON line is its table.
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "{") {
			last = line
		} else {
			fmt.Println(line)
		}
	}
	waitErr := cmd.Wait() // after the pipe is drained, as os/exec requires
	children.Lock()
	delete(children.live, cmd)
	children.Unlock()
	if waitErr != nil {
		return nil, nil, fmt.Errorf("%s (trace %d) in a child process: %w", w.Name, trace, waitErr)
	}
	var out outcome
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		return nil, nil, fmt.Errorf("%s: the child's last line %q: %w", w.Name, last, err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "result.json"))
	if err != nil {
		return nil, nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, nil, fmt.Errorf("%s: the child's result.json: %w", w.Name, err)
	}
	return &rep, &out, nil
}

// fanOut runs the selected workloads one child each and merges what they
// report: out/result.json, out/trace.json and the closing line, where
// end-to-end names get the workload as prefix and a traced workload's
// names get it as suffix. Every traced child measures the ladder, as a run
// by the contract's driver does; the merged report keeps the first.
func fanOut(o options, selected []workload) error {
	merged := report{Env: describeEnvironment(), Seed: o.seed, Seconds: o.seconds}
	out := outcome{Correct: true, Metrics: map[string]metricValue{}}
	var spans []span
	perWorkload := map[string]bool{}
	for _, name := range tracedNames {
		perWorkload[name] = true
	}
	for _, w := range selected {
		dir := filepath.Join(o.out, w.Name)
		rep, res, err := runChild(o, w, o.trace, dir)
		if err != nil {
			return err
		}
		merged.Runs = append(merged.Runs, rep.Runs...)
		merged.Traced = append(merged.Traced, rep.Traced...)
		if merged.Ladder == nil {
			merged.Ladder = rep.Ladder
		}
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		out.Correct = out.Correct && res.Correct
		for name, v := range res.Metrics {
			switch {
			case o.trace == 0:
				out.Metrics[w.Name+"."+name] = v
			case perWorkload[name]:
				out.Metrics[name+"."+w.Name] = v
			default:
				out.Metrics[name] = v
			}
		}
		if o.trace == 1 {
			more, err := readSpans(filepath.Join(dir, "trace.json"), len(spans))
			if err != nil {
				return err
			}
			spans = append(spans, more...)
		}
	}
	merged.Finished = time.Now().UTC().Format(time.RFC3339)
	if err := writeJSON(filepath.Join(o.out, "result.json"), merged); err != nil {
		return err
	}
	if o.trace == 1 {
		if err := (&recorder{spans: spans}).write(filepath.Join(o.out, "trace.json")); err != nil {
			return err
		}
	}
	return finish(out)
}

// readSpans loads a child's trace.json, shifting its span ids by offset so
// that several children's spans can share one file.
func readSpans(path string, offset int) ([]span, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for i := range file.Spans {
		file.Spans[i].ID += offset
		if file.Spans[i].Parent != 0 {
			file.Spans[i].Parent += offset
		}
	}
	return file.Spans, nil
}

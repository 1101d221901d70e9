package job

import (
	"errors"
	"fmt"

	"mpj/internal/core"
)

// fate is what a rank's outcome means for the job's verdict (Failure).
// It travels in the rank's Done report.
type fate struct {
	Kind int // one of the kinds below
	Code int // an abort's code
}

// The kinds of a rank's outcome, in the order Failure names them.
const (
	succeeded   = iota
	aborted     // ended the job with Comm.Abort
	failedOwn   // failed of its own accord
	died        // condemned in its own registry (Device.Die)
	vanished    // ended without a report: killed, or destroyed by its daemon
	pardoned    // died or vanished, and a death verdict excuses it (Failure only)
	consequence // another rank's failure reached it: ErrRankFailed, ErrRevoked
)

// errVanished marks the outcome of a rank that ended without a report.
var errVanished = errors.New("vanished before reporting")

// fateOf classifies rank's outcome err.
func fateOf(rank int, err error) fate {
	if err == nil {
		return fate{Kind: succeeded}
	}
	var rf *core.RankFailedError
	own := errors.As(err, &rf) && rf.Rank == rank // the rank's own RankFailedError
	switch {
	case own && rf.Aborted:
		return fate{Kind: aborted, Code: rf.Code}
	case errors.Is(err, errVanished):
		return fate{Kind: vanished}
	case own:
		return fate{Kind: died}
	case errors.Is(err, core.ErrRankFailed) || errors.Is(err, core.ErrRevoked):
		return fate{Kind: consequence}
	}
	return fate{Kind: failedOwn}
}

// Failure is the one rule that names a failed job. errs holds each rank's
// outcome, nil for success; excused reports whether a death verdict
// excuses rank r's death. Failure names, lowest rank first within each
// step:
//
//  1. a rank that aborted (Comm.Abort) — never excused;
//  2. a rank that failed of its own accord;
//  3. a rank whose death no verdict excuses, one that reported its death
//     before one that vanished (a classic job's teardown makes its
//     bystanders vanish);
//  4. when every other failure is a consequence of another rank's
//     (ErrRankFailed, ErrRevoked), a dead rank, else a failed one;
//
// and returns nil when no rank failed. The error carries the named rank's
// RankFailedError, with an abort's code, under errors.As.
func Failure(errs []error, excused func(rank int) bool) error {
	named, kind, consequences := -1, consequence+1, false
	for r, err := range errs {
		k := fateOf(r, err).Kind
		if (k == died || k == vanished) && excused(r) {
			k = pardoned
		}
		consequences = consequences || k == consequence
		if k != succeeded && k < kind {
			named, kind = r, k
		}
	}
	if named < 0 || kind == pardoned && !consequences {
		return nil
	}
	return jobError(named, errs[named])
}

// jobError is the job's error naming rank r, whose outcome is err: err
// itself where it carries r's RankFailedError (a death or an abort), else
// err as the Cause of one.
func jobError(r int, err error) error {
	var rf *core.RankFailedError
	if !errors.As(err, &rf) || rf.Rank != r {
		err = &core.RankFailedError{Rank: r, Cause: err}
	}
	return fmt.Errorf("job: %w", err)
}

// outcome rebuilds the error a report carries, as fateOf classified it.
func (d Done) outcome() error {
	switch d.Fate.Kind {
	case succeeded:
		return nil
	case failedOwn:
		return errors.New(d.Err)
	case consequence:
		return &reported{d.Err, core.ErrRankFailed}
	}
	return &reported{d.Err, &core.RankFailedError{Rank: d.Rank, Aborted: d.Fate.Kind == aborted, Code: d.Fate.Code}}
}

// reported is a rank's error as its report carries it: the text, over the
// error its fate stands for.
type reported struct {
	text string
	fate error
}

func (e *reported) Error() string { return e.text }
func (e *reported) Unwrap() error { return e.fate }

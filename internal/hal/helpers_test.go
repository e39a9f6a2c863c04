package hal

import (
	"context"
	"errors"
	"testing"

	"doppiodb/internal/engine"
	"doppiodb/internal/sim"
)

// submit submits p to engine e and fails the test on any error.
func submit(t *testing.T, h *HAL, e int, p engine.JobParams) *Job {
	t.Helper()
	j, err := h.SubmitToContext(context.Background(), e, p)
	if err != nil {
		t.Fatalf("submit to engine %d: %v", e, err)
	}
	return j
}

// dispatch hands jobs to the runtime as one group and fails the test on any
// error.
func dispatch(t *testing.T, h *HAL, jobs ...*Job) {
	t.Helper()
	if err := h.DispatchContext(context.Background(), jobs...); err != nil {
		t.Fatalf("dispatch: %v", err)
	}
}

// runAll dispatches jobs as one group and awaits every completion record.
func runAll(t *testing.T, h *HAL, jobs ...*Job) []Completion {
	t.Helper()
	dispatch(t, h, jobs...)
	out := make([]Completion, len(jobs))
	for i, j := range jobs {
		c, err := j.Await(context.Background())
		if err != nil {
			t.Fatalf("await job %d: %v", i, err)
		}
		out[i] = c
	}
	return out
}

// errPending is completion called before the runtime finished the job.
var errPending = errors.New("job timing not resolved yet")

// completion reports a job's outcome without blocking: its hardware time
// once the runtime completed it, errPending before that, and the abort
// cause of a canceled job.
func completion(j *Job) (sim.Time, error) {
	select {
	case <-j.done:
	default:
		return 0, errPending
	}
	if j.canceled {
		if j.failErr != nil {
			return 0, j.failErr
		}
		return 0, ErrCanceled
	}
	return j.comp.HWTime(), nil
}

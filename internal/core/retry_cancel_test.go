package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/obs"
)

// cancelAt is a context that reads as cancelled from the n-th call of
// Done on, so a test can cancel at an exact point of the search.
type cancelAt struct {
	context.Context
	n     int32
	calls atomic.Int32
}

var closedDone = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (c *cancelAt) Done() <-chan struct{} {
	if c.calls.Add(1) >= c.n {
		return closedDone
	}
	return nil
}

func (c *cancelAt) Err() error {
	if c.calls.Load() >= c.n {
		return context.Canceled
	}
	return nil
}

// TestRetryCancelStopsSpeculativeAttempts cancels the context right after
// attempt 0 of the first block fails (the block-start check is the first
// Done call, the retry workers' checks come next). Every worker must stop
// before starting an attempt, and Map must return the cancellation with
// only attempt 0 counted — what the sequential loop did — at any
// GOMAXPROCS.
func TestRetryCancelStopsSpeculativeAttempts(t *testing.T) {
	var cm [16]int
	for i := range cm {
		cm[i] = 2
	}
	grid, err := arch.CustomGrid("TINY2", cm)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rec := obs.NewRecorder(obs.NewRegistry(), nil)
			opt := DefaultOptions(FlowCAB)
			opt.Obs = rec
			opt.ctx = &cancelAt{Context: context.Background(), n: 2}
			_, err := Map(smallLoop(8), grid, opt)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("GOMAXPROCS=%d: got %v, want the cancellation", procs, err)
			}
			for name, want := range map[string]int64{
				"core.map.attempts":           1,
				"core.map.attempts_abandoned": 0,
			} {
				if got := rec.Counter(name).Value(); got != want {
					t.Errorf("GOMAXPROCS=%d: %s = %d, want %d", procs, name, got, want)
				}
			}
		}()
	}
}

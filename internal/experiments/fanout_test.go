package experiments

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestFanOut pins the fan-out contract every matrix runs on: results
// land at their index whatever the completion order, the first error
// cancels the context the other cells see, and every cell is attempted
// exactly once.
func TestFanOut(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name string
		n    int
		fail int // index of the failing cell, -1 for none
	}{
		{"empty", 0, -1},
		{"one", 1, -1},
		{"reverse completion", 8, -1},
		{"first fails", 8, 0},
		{"last fails", 8, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			calls := make([]atomic.Int32, tc.n)
			// Cells finish in reverse index order: cell i waits until
			// cell i+1 has finished, except that a cancelled context
			// releases every wait.
			finished := make([]chan struct{}, tc.n+1)
			for i := range finished {
				finished[i] = make(chan struct{})
			}
			close(finished[tc.n])
			var cancelled atomic.Int32
			res, err := FanOut(context.Background(), tc.n, func(ctx context.Context, i int) (int, error) {
				calls[i].Add(1)
				defer close(finished[i])
				if i == tc.fail {
					return 0, boom
				}
				select {
				case <-finished[i+1]:
				case <-ctx.Done():
				}
				if tc.fail >= 0 {
					// The failing cell either already finished (its
					// error cancelled ctx) or finishes after this one.
					select {
					case <-ctx.Done():
						cancelled.Add(1)
					case <-time.After(5 * time.Second):
						t.Errorf("cell %d: context not cancelled after cell %d failed", i, tc.fail)
					}
				}
				return i * 10, nil
			})
			for i := range calls {
				if n := calls[i].Load(); n != 1 {
					t.Errorf("cell %d attempted %d times, want 1", i, n)
				}
			}
			if tc.fail >= 0 {
				if !errors.Is(err, boom) {
					t.Fatalf("err = %v, want the failing cell's error", err)
				}
				if got := int(cancelled.Load()); got != tc.n-1 {
					t.Errorf("%d cells saw the cancellation, want %d", got, tc.n-1)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != tc.n {
				t.Fatalf("len(res) = %d, want %d", len(res), tc.n)
			}
			for i, r := range res {
				if r != i*10 {
					t.Errorf("res[%d] = %d, want %d", i, r, i*10)
				}
			}
		})
	}
}

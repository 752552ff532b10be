package mr

import (
	"context"
	"errors"
	"testing"

	"repro/internal/relation"
)

// TestRunCancelledContext asserts that a cancelled context aborts the
// run and surfaces the cancellation cause instead of a result.
func TestRunCancelledContext(t *testing.T) {
	in := intsRelation("in")
	for i := 0; i < 64; i++ {
		in.MustAppend(relation.Tuple{relation.Int(int64(i))})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, smallConfig(), countJob(in, 3))
	if err == nil {
		t.Fatalf("cancelled run returned %+v, want error", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRunNilContext asserts nil is accepted and treated as Background.
func TestRunNilContext(t *testing.T) {
	in := intsRelation("in")
	in.MustAppend(relation.Tuple{relation.Int(1)})
	if _, err := Run(nil, smallConfig(), countJob(in, 2)); err != nil { //nolint:staticcheck
		t.Fatal(err)
	}
}

// TestForEachFirstError asserts the pool stops on the first error and
// returns it.
func TestForEachFirstError(t *testing.T) {
	boom := errors.New("boom")
	err := forEach(context.Background(), 4, 100, func(_, i int) error {
		if i == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if err := forEach(context.Background(), 4, 100, func(int, int) error { return nil }); err != nil {
		t.Fatalf("clean pool errored: %v", err)
	}
}

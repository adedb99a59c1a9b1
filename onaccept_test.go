package wavepipe

import (
	"context"
	"errors"
	"slices"
	"testing"

	"wavepipe/internal/checkpoint"
)

// keptRow is what an OnAccept consumer that does not copy holds on to.
type keptRow struct {
	t   float64
	row []float64
}

// keptAreResultRows fails unless the kept rows are the Result's rows, one per
// accepted point in order: the same backing storage when same is set, equal
// values otherwise.
func keptAreResultRows(t *testing.T, kept []keptRow, res *Result, same bool) {
	t.Helper()
	if res == nil || res.W == nil || len(kept) != res.W.Len() {
		t.Fatalf("kept %d rows, result %v", len(kept), res)
	}
	for i, k := range kept {
		row := res.W.Data[i]
		if k.t != res.W.Times[i] || !slices.Equal(k.row, row) {
			t.Fatalf("kept row %d at t=%g differs from the result's row at t=%g", i, k.t, res.W.Times[i])
		}
		if same && &k.row[0] != &row[0] {
			t.Fatalf("kept row %d at t=%g is a copy, not the result's own row", i, k.t)
		}
	}
}

// TestOnAcceptRowsAreResultRows: OnAccept hands out the Result's own rows,
// never written again, so a consumer that keeps them without copying (the
// service's stream) holds exactly the returned waveform — on a serial run, a
// pipelined one, and across a resume from the state a stopped attempt
// retained in memory. A windowed run replays its stitched rows when it ends:
// equal values.
func TestOnAcceptRowsAreResultRows(t *testing.T) {
	sys, base := suiteSystem(t, "nand5")
	base.TStop /= 4
	for _, tc := range []struct {
		name   string
		scheme Scheme
	}{
		{"serial", Serial},
		{"forward", Forward},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var kept []keptRow
			opts := base
			opts.Scheme = tc.scheme
			opts.OnAccept = func(tt float64, row []float64) { kept = append(kept, keptRow{tt, row}) }
			res, err := RunTransientCtx(context.Background(), sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			keptAreResultRows(t, kept, res, true)
		})
	}

	t.Run("resumed", func(t *testing.T) {
		var kept []keptRow
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opts := base
		opts.OnAccept = func(tt float64, row []float64) {
			kept = append(kept, keptRow{tt, row})
			if len(kept) == 40 {
				cancel()
			}
		}
		first := checkpoint.NewController(checkpoint.Config{})
		if _, err := runGuarded(ctx, sys, opts, first, nil); !errors.Is(err, ErrCanceled) {
			t.Fatalf("first attempt: err = %v, want ErrCanceled", err)
		}
		if len(kept) != 40 || first.Retained() == nil {
			t.Fatalf("first attempt kept %d rows, retained %v", len(kept), first.Retained())
		}
		res, err := runGuarded(context.Background(), sys, opts, checkpoint.NewController(checkpoint.Config{}), first.Retained())
		if err != nil {
			t.Fatal(err)
		}
		keptAreResultRows(t, kept, res, true)
	})

	t.Run("windows", func(t *testing.T) {
		grid, opts := suiteSystem(t, "grid16")
		var kept []keptRow
		opts.TStop /= 4
		opts.Windows = 2
		opts.OnAccept = func(tt float64, row []float64) { kept = append(kept, keptRow{tt, row}) }
		res, err := RunTransientCtx(context.Background(), grid, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.WindowsLaunched < 2 {
			t.Fatalf("%d windows launched: nothing was stitched", res.Stats.WindowsLaunched)
		}
		keptAreResultRows(t, kept, res, false)
	})
}

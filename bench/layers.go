package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"wavepipe"
	"wavepipe/internal/artifact"
	"wavepipe/internal/checkpoint"
	"wavepipe/internal/circuit"
	"wavepipe/internal/dcop"
	"wavepipe/wire"
)

// These functions time the public functions of single layers directly, for
// the per-layer metrics that no run reports. They run after the timed
// passes, only when per-layer metrics were asked for.

// medianOf times f reps times and returns the median.
func medianOf(reps int, f func() error) (time.Duration, error) {
	v := make([]float64, reps)
	for i := range v {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		v[i] = float64(time.Since(t0))
	}
	return time.Duration(median(v)), nil
}

// perOp runs f in 5 batches of n and returns the median batch time per call.
func perOp(n int, f func()) time.Duration {
	d, _ := medianOf(5, func() error {
		for i := 0; i < n; i++ {
			f()
		}
		return nil
	})
	return d / time.Duration(n)
}

// kernelTimes are the summed per-call times of the solver kernels over a
// set of systems.
type kernelTimes struct {
	load, refactor, solve, dcop time.Duration
	dcopIters                   int
}

// kernels finds each system's operating point on a fresh workspace and then
// replays one device load, one numeric refactorization and one triangular
// solve at that point.
func kernels(sp *spans, parent int, systems []*wavepipe.System) (kernelTimes, error) {
	var k kernelTimes
	for _, sys := range systems {
		ws := sys.NewWorkspace()
		x := make([]float64, sys.N)
		id := sp.begin("dcop", "dcop.Solve", parent, 0)
		t0 := time.Now()
		st, err := dcop.Solve(ws, x, dcop.DefaultOptions())
		k.dcop += time.Since(t0)
		sp.end(id)
		if err != nil {
			return k, fmt.Errorf("dcop: %w", err)
		}
		k.dcopIters += st.NRIters

		p := circuit.LoadParams{Alpha0: 1e9, Gmin: 1e-12, SrcScale: 1}
		ws.Load(x, p)
		if err := ws.Solver.Factorize(); err != nil {
			return k, fmt.Errorf("factorize: %w", err)
		}
		dx := make([]float64, sys.N)
		k.load += perOp(100, func() { ws.Load(x, p) })
		k.refactor += perOp(20, func() { err = ws.Solver.Factorize() })
		if err != nil {
			return k, fmt.Errorf("refactor: %w", err)
		}
		k.solve += perOp(100, func() { err = ws.Solver.Solve(ws.F, dx) })
		if err != nil {
			return k, fmt.Errorf("solve: %w", err)
		}
	}
	return k, nil
}

// batchLoadPerLaneOp binds fresh copies of an ensemble unit's lanes to one
// host system and times circuit.BatchLoad per lane.
func batchLoadPerLaneOp(u *unit) (time.Duration, error) {
	circs := make([]*wavepipe.Circuit, len(u.scales))
	for i, s := range u.scales {
		circs[i] = u.gen()
		scaleResistors(circs[i], s)
	}
	host, err := circs[0].Build()
	if err != nil {
		return 0, err
	}
	lanes := host.NewLaneWorkspaces(len(circs))
	xs := make([][]float64, len(circs))
	ps := make([]circuit.LoadParams, len(circs))
	for i, c := range circs {
		if err := host.BindLanes(c); err != nil {
			return 0, err
		}
		lanes[i].SetDevices(c.Devices())
		xs[i] = make([]float64, host.N)
		ps[i] = circuit.LoadParams{Alpha0: 1e9, Gmin: 1e-12, SrcScale: 1}
	}
	circuit.BatchLoad(lanes, xs, ps)
	return perOp(50, func() { circuit.BatchLoad(lanes, xs, ps) }) / time.Duration(len(circs)), nil
}

func (w *engineWL) layers(_ context.Context, sp *spans, parent int, rep *report) error {
	var systems []*wavepipe.System
	for _, u := range w.units {
		if u.sys != nil {
			systems = append(systems, u.sys)
		} else {
			systems = append(systems, u.lsys[0])
		}
	}
	k, err := kernels(sp, parent, systems)
	if err != nil {
		return err
	}
	rep.setKernels(k)
	for _, u := range w.units {
		if len(u.scales) == 0 {
			continue
		}
		d, err := batchLoadPerLaneOp(u)
		if err != nil {
			return fmt.Errorf("%s batch load: %w", u.name, err)
		}
		rep.add("circuit.batchload_ns_lane_op", float64(d.Nanoseconds()))
	}
	return nil
}

func (r *report) setKernels(k kernelTimes) {
	r.set("circuit.load_ns_op", float64(k.load.Nanoseconds()))
	r.set("sparse.refactor_ns_op", float64(k.refactor.Nanoseconds()))
	r.set("sparse.solve_ns_op", float64(k.solve.Nanoseconds()))
	r.set("dcop.solve_s", k.dcop.Seconds())
	r.set("dcop.iters", float64(k.dcopIters))
}

func (w *serviceWL) layers(ctx context.Context, sp *spans, parent int, rep *report) error {
	hits, misses, _ := w.svc.CacheCounters()
	rep.set("artifact.hit_ratio", ratio(float64(hits), float64(hits+misses)))
	_, _, _, _, _, rejected, preemptions := w.svc.SchedSnapshot()
	rep.set("sched.rejected", float64(rejected))
	rep.set("sched.preemptions", float64(preemptions))

	// netlist and artifact: every deck of the mix, summed.
	var systems []*wavepipe.System
	bytesTotal := 0
	parse, err := medianOf(5, func() error {
		id := sp.begin("netlist", "ParseDeck", parent, 0)
		defer sp.end(id)
		for _, d := range w.decks {
			if _, err := wavepipe.ParseDeck(d.text); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var miss, hit time.Duration
	cache := artifact.New(32)
	for _, d := range w.decks {
		bytesTotal += len(d.text)
		id := sp.begin("artifact", "Cache.Compile/miss", parent, 0)
		t0 := time.Now()
		e, _, err := cache.Compile(d.text, artifact.BuildOptions{})
		miss += time.Since(t0)
		sp.end(id)
		if err != nil {
			return err
		}
		systems = append(systems, e.Sys)
		id = sp.begin("artifact", "Cache.Compile/hit", parent, 0)
		h, err := medianOf(5, func() error {
			_, _, err := cache.Compile(d.text, artifact.BuildOptions{})
			return err
		})
		sp.end(id)
		if err != nil {
			return err
		}
		hit += h
	}
	rep.set("netlist.parse_s", parse.Seconds())
	rep.set("netlist.deck_bytes", float64(bytesTotal))
	rep.set("artifact.compile_miss_s", miss.Seconds())
	rep.set("artifact.compile_hit_s", hit.Seconds())

	k, err := kernels(sp, parent, systems)
	if err != nil {
		return err
	}
	rep.setKernels(k)

	// checkpoint and wire: the grid16 job, the largest state and result of
	// the mix, run in process with the checkpointing the service turns on.
	grid := w.decks[len(w.decks)-1]
	path := filepath.Join(w.dir, "layers.ckpt")
	rec := wavepipe.NewTraceRecorder(0)
	res, err := wavepipe.RunDeckCtx(ctx, grid.deck, wavepipe.TranOptions{CheckpointPath: path, Observer: rec})
	if err != nil {
		return fmt.Errorf("checkpointed run: %w", err)
	}
	defer os.Remove(path)
	var write int64
	for _, ev := range rec.Events() {
		if ev.Kind == wavepipe.TraceKindCheckpoint {
			write += ev.Dur
		}
	}
	rep.set("checkpoint.write_s", sec(write))
	st, err := checkpoint.Load(path)
	if err != nil {
		return err
	}
	var blob []byte
	enc, _ := medianOf(9, func() error {
		id := sp.begin("checkpoint", "checkpoint.Encode", parent, 0)
		blob = checkpoint.Encode(st)
		sp.end(id)
		return nil
	})
	dec, err := medianOf(9, func() error {
		id := sp.begin("checkpoint", "checkpoint.Decode", parent, 0)
		defer sp.end(id)
		_, err := checkpoint.Decode(blob)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("checkpoint.encode_s", enc.Seconds())
	rep.set("checkpoint.decode_s", dec.Seconds())
	rep.set("checkpoint.bytes", float64(len(blob)))

	var buf bytes.Buffer
	enc, err = medianOf(9, func() error {
		id := sp.begin("wire", "wire.Encode", parent, 0)
		defer sp.end(id)
		buf.Reset()
		return wire.Encode(&buf, wire.FromResult(res))
	})
	if err != nil {
		return err
	}
	body := buf.Bytes()
	dec, err = medianOf(9, func() error {
		id := sp.begin("wire", "wire.DecodeResult", parent, 0)
		defer sp.end(id)
		wr, err := wire.DecodeResult(bytes.NewReader(body))
		if err != nil {
			return err
		}
		_, err = wr.ToResult()
		return err
	})
	if err != nil {
		return err
	}
	rep.set("wire.encode_result_s", enc.Seconds())
	rep.set("wire.decode_result_s", dec.Seconds())
	rep.set("wire.result_bytes", float64(len(body)))
	return nil
}

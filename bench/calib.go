package main

import (
	"math"
	"time"
)

// The host this benchmark runs on is a few cores of a shared machine, and its
// speed moves by 15–30 % — at times by a factor of two — for minutes on end:
// every workload, the deterministic single-threaded ones included, slows
// down together, and no statistic over one run removes that. So the timed
// passes and the set-up repetitions are interleaved with a fixed calibration
// loop of the benchmark's own, which runs none of the repository's code, and
// each timing is scaled by how fast the host ran that loop beside it:
//
//	reported = measured × calibNominal ÷ (calibration time around it)
//
// The end-to-end timings are therefore seconds on a host that runs the loop
// in calibNominal. The clock as it was read is reported too, as bench.raw_*.

// calibNominal is what one calibration takes on the host the baseline in
// README.md was measured on, in its quiet state.
const calibNominal = 47 * time.Millisecond

const (
	// Four arrays of this length are 1.8 MB, most of this host's 2 MB L2,
	// as the larger systems' factors are. Against the engines' runs under
	// the host's own disturbances, a loop whose gather stayed within 224 KB
	// moved 0.75–0.85 as much as they did, this one 0.9–1.0.
	calibSlots = 1 << 16
	calibDense = 64
	gatherReps = 115
	expIters   = 320000
	denseReps  = 220
)

// calibrator holds the loop's arrays.
type calibrator struct {
	ready     bool
	idx       [calibSlots]int32
	val, x, y [calibSlots]float64
	dense     [calibDense * calibDense]float64
	sum       float64
}

// hostCal is static so that its arrays are no part of the heap that
// live_heap_mb reads.
var hostCal calibrator

func theCalibrator() *calibrator {
	c := &hostCal
	if c.ready {
		return c
	}
	c.ready = true
	r := uint32(777)
	for i := range c.idx {
		r = r*1664525 + 1013904223
		c.idx[i] = int32(r >> 16 % calibSlots)
		c.val[i], c.x[i] = 0.5, 1
	}
	c.measure() // first touch of the arrays
	return c
}

// measure runs the fixed work once and returns the seconds it took: the
// three things the engines spend their time on, in about equal parts. An
// indexed gather and scatter as in a sparse refactorization, a chain of
// exponentials as in the device models, and a dense elimination. It
// allocates nothing.
func (c *calibrator) measure() float64 {
	t0 := time.Now()
	for rep := 0; rep < gatherReps; rep++ {
		for i := 0; i < calibSlots; i++ {
			c.y[c.idx[i]] -= c.val[i] * c.x[c.idx[(i+7)%calibSlots]]
		}
	}
	s, v := 0.0, 0.3
	for i := 0; i < expIters; i++ {
		e := math.Exp(v)
		s += e / (1 + e)
		v = 0.6 - 0.5*s/float64(i+1)
	}
	const n = calibDense
	for rep := 0; rep < denseReps; rep++ {
		for i := range c.dense {
			c.dense[i] = float64(i%17) + 1
		}
		for k := 0; k < n; k++ {
			p := 1 / (c.dense[k*n+k] + n)
			piv := c.dense[k*n : k*n+n]
			for i := k + 1; i < n; i++ {
				row := c.dense[i*n : i*n+n]
				f := row[k] * p
				for j := k + 1; j < n; j++ {
					row[j] -= f * piv[j]
				}
			}
		}
		s += c.dense[n*n-1]
	}
	c.sum += s + c.y[3]
	return time.Since(t0).Seconds()
}

// calibrated times n calls of f in at most stretches stretches of equal
// length, with a calibration before each stretch and one after the last. It
// returns f's timings as the clock read them, the mean timing of each stretch
// scaled to the nominal host speed, and the calibration times.
//
// When another process shares the core, time is lost a scheduler slice at a
// time. A call shorter than a slice loses either nothing or a whole slice,
// so its median says nothing about the share of the core the benchmark got;
// the sum over a stretch of many slices does, which is why short calls are
// scaled a stretch at a time. A single calibration likewise catches more or
// less than its share of the slices, so each stretch is scaled by the median
// of the four calibrations nearest to it.
func (c *calibrator) calibrated(n, stretches int, f func(i int) (time.Duration, error)) (raw, scaled, calib []float64, err error) {
	per := (n + stretches - 1) / stretches
	raw = make([]float64, n)
	for i := range raw {
		if i%per == 0 {
			calib = append(calib, c.measure())
		}
		d, err := f(i)
		if err != nil {
			return nil, nil, nil, err
		}
		raw[i] = d.Seconds()
	}
	calib = append(calib, c.measure())
	for b := 0; b*per < n; b++ { // stretch b lies between calib[b] and calib[b+1]
		calls := raw[b*per : min(n, (b+1)*per)]
		sum := 0.0
		for _, v := range calls {
			sum += v
		}
		near := calib[max(0, b-1):min(len(calib), b+3)]
		scaled = append(scaled, sum/float64(len(calls))*calibNominal.Seconds()/median(near))
	}
	return raw, scaled, calib, nil
}

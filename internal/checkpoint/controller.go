package checkpoint

import (
	"sync"
	"sync/atomic"
	"time"

	"wavepipe/internal/faults"
	"wavepipe/internal/trace"
)

// Defaults for Config fields left zero.
const (
	// DefaultEvery is the periodic-save cadence in accepted points when a
	// checkpoint path is configured without an explicit interval. At this
	// cadence the measured overhead on the grid16 serial benchmark is well
	// under the 2% budget.
	DefaultEvery = 256
	// DefaultStallFloor is the minimum idle time before the stall watchdog
	// may trip, so a single genuinely hard time point (one slow solve, not
	// a hang) does not abort the run.
	DefaultStallFloor = time.Second
	// DefaultPoll is the watchdog's wake-up period; it bounds how late a
	// deadline or stall is detected.
	DefaultPoll = 25 * time.Millisecond
	// minStallFactor is the lowest accepted watchdog multiple: below ~2×
	// the trailing average, ordinary step-to-step variance would trip it.
	minStallFactor = 2.0
)

// Config describes one run's durability and time-bound contract.
type Config struct {
	// Path is the checkpoint file. Empty disables persistence; snapshots
	// are still retained in memory for panic salvage.
	Path string
	// Every is the periodic-save cadence in accepted points (0 = DefaultEvery).
	Every int
	// Deadline is the wall-clock budget measured from Start (0 = none).
	Deadline time.Duration
	// StallFactor arms the watchdog: the run aborts with ErrStalled when no
	// step is accepted within StallFactor × the trailing EWMA of
	// inter-accept wall time (subject to StallFloor). 0 disables it.
	StallFactor float64
	// StallFloor is the minimum idle time before a stall trips
	// (0 = DefaultStallFloor).
	StallFloor time.Duration
	// Poll is the watchdog period (0 = DefaultPoll).
	Poll time.Duration
}

// Controller guards one run: it owns the cooperative abort flag, runs the
// deadline/stall watchdog goroutine, decides when periodic snapshots are
// due, and persists them. Engine-facing methods (NoteAccept, Save, Err) are
// called from the engine's coordinating goroutine; the watchdog shares only
// atomics and the abort flag with it. All engine-facing methods are nil-safe
// so unguarded runs pay a nil check and nothing else.
type Controller struct {
	cfg   Config
	abort faults.Abort
	start time.Time

	tr *trace.Tracer

	accepts int // engine goroutine only

	// Watchdog-shared heartbeat, all in nanoseconds since start; kept only
	// when StallFactor arms the watchdog.
	lastBeat atomic.Int64 // time of the most recent accepted step
	emaBeat  atomic.Int64 // EWMA of inter-accept intervals
	beats    atomic.Int64 // accepted-step count (EWMA valid from the 2nd)

	quit    chan struct{}
	wg      sync.WaitGroup
	started bool
	stopped bool

	mu       sync.Mutex
	retained *State
	saveErr  error
	saves    int
}

// NewController builds a controller from the config, applying defaults. With
// the zero Config it persists nothing and only retains the latest snapshot:
// the in-memory hand-off the service resumes a preempted job from and the
// window coordinator seeds the next window from.
func NewController(cfg Config) *Controller {
	if cfg.Path != "" && cfg.Every <= 0 {
		cfg.Every = DefaultEvery
	}
	if cfg.StallFloor <= 0 {
		cfg.StallFloor = DefaultStallFloor
	}
	if cfg.Poll <= 0 {
		cfg.Poll = DefaultPoll
	}
	if cfg.StallFactor > 0 && cfg.StallFactor < minStallFactor {
		cfg.StallFactor = minStallFactor
	}
	return &Controller{cfg: cfg}
}

// SetTracer attaches the run's event stream; each Save emits one
// KindCheckpoint event. Must be called before Start.
func (c *Controller) SetTracer(tr *trace.Tracer) {
	if c != nil {
		c.tr = tr
	}
}

// Start records the run's wall-clock origin and launches the watchdog if a
// deadline or stall factor is configured.
func (c *Controller) Start() {
	if c == nil || c.started {
		return
	}
	c.started = true
	c.start = time.Now()
	if c.cfg.Deadline <= 0 && c.cfg.StallFactor <= 0 {
		return
	}
	c.quit = make(chan struct{})
	c.wg.Add(1)
	go c.watch()
}

// Stop terminates the watchdog and waits for it; it is idempotent and safe
// on a controller that never started.
func (c *Controller) Stop() {
	if c == nil || !c.started || c.stopped {
		return
	}
	c.stopped = true
	if c.quit != nil {
		close(c.quit)
		c.wg.Wait()
	}
}

func (c *Controller) watch() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.Poll)
	defer tick.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-tick.C:
			now := time.Since(c.start)
			if c.cfg.Deadline > 0 && now >= c.cfg.Deadline {
				c.abort.Trip(faults.ErrDeadlineExceeded)
				return
			}
			if c.cfg.StallFactor > 0 && c.beats.Load() >= 2 {
				idle := now.Nanoseconds() - c.lastBeat.Load()
				thr := int64(c.cfg.StallFactor * float64(c.emaBeat.Load()))
				if floor := c.cfg.StallFloor.Nanoseconds(); thr < floor {
					thr = floor
				}
				if idle > thr {
					c.abort.Trip(faults.ErrStalled)
					return
				}
			}
		}
	}
}

// Active reports whether a guard is attached at all.
func (c *Controller) Active() bool { return c != nil }

// AbortFlag returns the run's cooperative stop flag (nil when unguarded),
// for wiring into workspaces so the Newton loop can poll it.
func (c *Controller) AbortFlag() *faults.Abort {
	if c == nil {
		return nil
	}
	return &c.abort
}

// Err returns the abort cause once the deadline or watchdog has tripped.
func (c *Controller) Err() error {
	if c == nil {
		return nil
	}
	return c.abort.Err()
}

// NoteAccept records one accepted step and reports whether a periodic
// snapshot is now due. Only the stall watchdog reads the heartbeat, so the
// clock is read and the heartbeat kept only when StallFactor arms it.
func (c *Controller) NoteAccept() bool {
	if c == nil {
		return false
	}
	if c.cfg.StallFactor > 0 {
		now := time.Since(c.start).Nanoseconds()
		prev := c.lastBeat.Swap(now)
		if c.beats.Add(1) > 1 {
			dt := now - prev
			if old := c.emaBeat.Load(); old == 0 {
				c.emaBeat.Store(dt)
			} else {
				// EWMA with α = 1/8: smooth enough to ride out step-size
				// oscillation, fresh enough to track a slowing run.
				c.emaBeat.Store(old + (dt-old)/8)
			}
		}
	}
	c.accepts++
	return c.cfg.Path != "" && c.cfg.Every > 0 && c.accepts%c.cfg.Every == 0
}

// Save retains the snapshot (for panic salvage) and, when a path is
// configured, persists it atomically in the relaxed mode: the write is
// torn-proof and survives process death (including kill -9) but is not
// fsynced — that cost is reserved for SaveFinal, off the hot path. The
// returned error is also latched for LastSaveErr; engines treat
// periodic-save failures as non-fatal.
func (c *Controller) Save(s *State) error {
	return c.save(s, false)
}

// SaveFinal is Save with full durability (fsync of file and directory):
// the flush engines issue once on the way out, when latency no longer
// matters and the snapshot must survive even a machine crash.
func (c *Controller) SaveFinal(s *State) error {
	return c.save(s, true)
}

func (c *Controller) save(s *State, durable bool) error {
	if c == nil || s == nil {
		return nil
	}
	began := time.Now()
	var err error
	if c.cfg.Path != "" {
		err = save(c.cfg.Path, s, durable)
	}
	c.mu.Lock()
	c.retained = s
	c.saveErr = err
	if err == nil {
		c.saves++
	}
	c.mu.Unlock()
	if c.tr.Active() {
		c.tr.Emit(trace.Event{
			Kind: trace.KindCheckpoint, T: s.T, Worker: -1,
			Dur: time.Since(began).Nanoseconds(),
		})
	}
	return err
}

// Retained returns the most recent snapshot handed to Save (persisted or
// not); panic containment salvages a partial result from it.
func (c *Controller) Retained() *State {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retained
}

// LastSaveErr returns the outcome of the most recent Save.
func (c *Controller) LastSaveErr() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saveErr
}

// Saves returns how many snapshots were successfully persisted.
func (c *Controller) Saves() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saves
}

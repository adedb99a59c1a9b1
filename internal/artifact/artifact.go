// Package artifact is the process-wide compiled-artifact cache behind the
// simulation service: repeat submissions of the same netlist skip straight
// to timestepping instead of re-running symbolic analysis.
//
// A deck's expensive derived artifacts all hang off its compiled
// circuit.System: the frozen Jacobian pattern, the charge-pass device list,
// the fill-reducing column ordering (computed once per System and shared by
// every workspace via FactorizeWithPerm) and the incremental-assembly basis
// (the linear-stamp template). A System is immutable
// and safe to share across concurrent runs — per-run numerics live in
// Workspaces — so caching the System *is* caching every artifact at once.
//
// Entries are keyed by a canonical netlist hash: the parsed deck is
// re-rendered through the netlist writer, so two texts that differ only in
// formatting, comments or card order produced by equivalent front-ends map
// to one key. The cache is bounded and evicts least-recently-used.
package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"wavepipe/internal/circuit"
	"wavepipe/internal/netlist"
	"wavepipe/internal/reduce"
)

// Entry is one cached compilation: the parsed deck and its compiled,
// prewarmed System. Entries are immutable once inserted; concurrent jobs
// share them freely.
type Entry struct {
	// Key is the canonical netlist hash (hex SHA-256).
	Key string
	// Deck is the parsed netlist (analysis cards, ICs, options).
	Deck *netlist.Deck
	// Sys is the compiled system: pattern, shared fill ordering.
	Sys *circuit.System
}

// Cache is a bounded, LRU-evicting map from canonical netlist hash to
// compiled Entry. The zero value is not usable; call New.
type Cache struct {
	mu      sync.Mutex
	max     int
	tick    uint64
	entries map[string]*slot

	hits   atomic.Int64
	misses atomic.Int64
	builds atomic.Int64
}

type slot struct {
	e    *Entry
	tick uint64
}

// New returns a cache bounded to max entries (<= 0 selects a default of 16).
func New(max int) *Cache {
	if max <= 0 {
		max = 16
	}
	return &Cache{max: max, entries: make(map[string]*slot)}
}

// Canonical renders a parsed deck in the writer's canonical form. Decks the
// writer cannot serialize (exotic programmatic devices) fall back to the
// whitespace-normalized source text, so they still cache — just without
// formatting invariance.
func Canonical(d *netlist.Deck) string {
	var b strings.Builder
	// The title card is a comment — it never reaches the compiled System —
	// so strip it before rendering: decks differing only in title share one
	// artifact.
	titled := *d
	titled.Title = "canonical"
	if titled.Circuit != nil {
		c := *titled.Circuit
		c.Title = ""
		titled.Circuit = &c
	}
	if err := netlist.Write(&b, &titled); err == nil {
		// Parsing is fully case-insensitive (node names are folded, every
		// name lookup compares lower-cased), so case is formatting too.
		return strings.ToLower(b.String())
	}
	var n strings.Builder
	for _, line := range strings.Split(d.Src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "*") {
			continue
		}
		n.WriteString(strings.ToLower(strings.Join(strings.Fields(line), " ")))
		n.WriteByte('\n')
	}
	return n.String()
}

// Key hashes a canonical deck rendering into the cache key.
func Key(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:])
}

// BuildOptions carries every option that shapes the compiled System beyond
// the netlist itself. Anything here MUST be folded into the cache key: a
// System built under one reduction configuration is a different artifact
// from the same deck built under another, and serving a reduced System to
// an unreduced job (or vice versa) would silently change its results.
type BuildOptions struct {
	// Reduce enables the parasitic-reduction pass at build time.
	Reduce bool
	// ReduceTol is the ladder-lumping error budget (0 = exact mode).
	ReduceTol float64
	// ReduceKeep lists node names the pass must preserve (the caller's
	// record/keep/IC/NODESET names; the deck's own .PRINT, .IC and
	// .NODESET references are added automatically).
	ReduceKeep []string
}

// keySuffix renders the build-shaping options into the hashed key material.
// keep must already be the full resolved keep list.
func (bo BuildOptions) keySuffix(keep []string) string {
	if !bo.Reduce {
		return ""
	}
	norm := make([]string, 0, len(keep))
	seen := map[string]bool{}
	for _, n := range keep {
		n = strings.ToLower(strings.TrimSpace(n))
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		norm = append(norm, n)
	}
	sort.Strings(norm)
	return fmt.Sprintf("\n.reduce tol=%.17g keep=%s\n", bo.ReduceTol, strings.Join(norm, ","))
}

// Compile parses src and returns its compiled entry, reusing a cached
// System when an equivalent netlist was compiled before under the same
// build-shaping options. hit reports whether the symbolic analysis was
// skipped. Parse, reduction and build errors are returned unchanged (and
// never cached).
func (c *Cache) Compile(src string, bo BuildOptions) (e *Entry, hit bool, err error) {
	deck, err := netlist.Parse(src)
	if err != nil {
		return nil, false, err
	}
	var keep []string
	if bo.Reduce {
		keep = append(keep, bo.ReduceKeep...)
		keep = append(keep, deck.Prints...)
		for name := range deck.ICs {
			keep = append(keep, name)
		}
		for name := range deck.NodeSets {
			keep = append(keep, name)
		}
	}
	key := Key(Canonical(deck) + bo.keySuffix(keep))

	c.mu.Lock()
	if s, ok := c.entries[key]; ok {
		c.tick++
		s.tick = c.tick
		c.hits.Add(1)
		c.mu.Unlock()
		return s.e, true, nil
	}
	c.mu.Unlock()

	// Build outside the lock: a slow compile must not serialize hits on
	// other decks. A concurrent duplicate build of the same deck is
	// harmless — last insert wins and the loser is garbage collected.
	c.misses.Add(1)
	c.builds.Add(1)
	circ := deck.Circuit
	var info *circuit.ReducedInfo
	if bo.Reduce {
		rc, ri, rerr := reduce.Reduce(circ, reduce.Options{Tol: bo.ReduceTol, Keep: keep})
		if rerr != nil {
			return nil, false, rerr
		}
		circ = rc
		if ri == nil {
			// No-op pass: attach an identity marker so the facade never
			// re-runs reduction on a System the cache already vetted.
			ri = identityReduction(circ)
		}
		info = ri
	}
	sys, err := circ.Build()
	if err != nil {
		return nil, false, err
	}
	if info != nil {
		sys.SetReduction(info)
	}
	sys.Prewarm()
	e = &Entry{Key: key, Deck: deck, Sys: sys}

	c.mu.Lock()
	c.tick++
	c.entries[key] = &slot{e: e, tick: c.tick}
	for len(c.entries) > c.max {
		var oldest string
		var oldestTick uint64
		for k, s := range c.entries {
			if oldest == "" || s.tick < oldestTick {
				oldest, oldestTick = k, s.tick
			}
		}
		delete(c.entries, oldest)
	}
	c.mu.Unlock()
	return e, false, nil
}

// identityReduction builds the no-op marker record: every node retained,
// nothing suppressed. Its presence on a System means "the reduction pass
// already ran here" without changing any result.
func identityReduction(c *circuit.Circuit) *circuit.ReducedInfo {
	n := c.NumNodes()
	ri := &circuit.ReducedInfo{
		OrigNodes: make([]string, n),
		NodeMap:   make([]int, n),
		Expansion: make([][]circuit.ExpandTerm, n),
	}
	for i := 0; i < n; i++ {
		ri.OrigNodes[i] = c.NodeName(i)
		ri.NodeMap[i] = i
	}
	return ri
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Counters reports cumulative lookups answered from the cache (hits),
// lookups that compiled (misses), and the number of System builds
// performed. builds == misses unless a build failed.
func (c *Cache) Counters() (hits, misses, builds int64) {
	return c.hits.Load(), c.misses.Load(), c.builds.Load()
}

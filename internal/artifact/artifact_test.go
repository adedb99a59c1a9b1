package artifact

import (
	"errors"
	"strings"

	"fmt"
	"sync"
	"testing"
	"wavepipe/internal/reduce"
)

const rcDeck = `* rc lowpass
V1 in 0 1
R1 in out 1k
C1 out 0 1n
.tran 1n 10n
.end
`

// Same deck, different formatting: extra whitespace, comments, lower case.
const rcDeckReformatted = `* rc lowpass, reformatted
v1   in 0   1
* a comment between cards
r1 in out 1k
c1 out 0 1n
.tran 1n 10n
.end
`

func TestCompileHitSharesSystem(t *testing.T) {
	c := New(4)
	e1, hit, err := c.Compile(rcDeck, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first compile reported a cache hit")
	}
	e2, hit, err := c.Compile(rcDeck, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second compile of the same deck missed the cache")
	}
	if e1.Sys != e2.Sys {
		t.Fatal("cache hit did not reuse the compiled System")
	}
	if hits, misses, builds := c.Counters(); hits != 1 || misses != 1 || builds != 1 {
		t.Fatalf("counters = (hits %d, misses %d, builds %d), want (1, 1, 1)", hits, misses, builds)
	}
}

func TestCanonicalizationIgnoresFormatting(t *testing.T) {
	c := New(4)
	e1, _, err := c.Compile(rcDeck, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e2, hit, err := c.Compile(rcDeckReformatted, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("reformatted deck missed the cache: canonicalization is format-sensitive")
	}
	if e1.Sys != e2.Sys {
		t.Fatal("reformatted deck built a second System")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	deck := func(i int) string {
		return fmt.Sprintf("* d%d\nV1 in 0 1\nR1 in 0 %dk\n.tran 1n 10n\n.end\n", i, i+1)
	}
	for i := 0; i < 3; i++ {
		if _, hit, err := c.Compile(deck(i), BuildOptions{}); err != nil || hit {
			t.Fatalf("deck %d: hit=%v err=%v", i, hit, err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want bound 2", c.Len())
	}
	// Deck 0 was the least recently used and must have been evicted.
	if _, hit, _ := c.Compile(deck(0), BuildOptions{}); hit {
		t.Fatal("evicted entry still answered a hit")
	}
	// Deck 2 is still resident.
	if _, hit, _ := c.Compile(deck(2), BuildOptions{}); !hit {
		t.Fatal("recent entry was evicted")
	}
}

func TestCountersReconcileWithBuilds(t *testing.T) {
	c := New(8)
	const goroutines, rounds = 8, 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, _, err := c.Compile(rcDeck, BuildOptions{}); err != nil {
					t.Errorf("compile: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	hits, misses, builds := c.Counters()
	if hits+misses != goroutines*rounds {
		t.Fatalf("hits %d + misses %d != lookups %d", hits, misses, goroutines*rounds)
	}
	if builds != misses {
		t.Fatalf("builds %d != misses %d (all builds succeed in this test)", builds, misses)
	}
	if hits == 0 {
		t.Fatal("no hits across identical concurrent submissions")
	}
}

func TestParseErrorNotCached(t *testing.T) {
	c := New(4)
	if _, _, err := c.Compile("R1 in out\n.end\n", BuildOptions{}); err == nil {
		t.Fatal("malformed deck compiled")
	}
	if c.Len() != 0 {
		t.Fatal("error result was cached")
	}
}

// ladderDeck renders an n-segment RC ladder netlist with a printed output
// node — reducible structure for the build-option keying tests.
func ladderDeck(n int, print string) string {
	var b strings.Builder
	b.WriteString("* ladder\nVin in 0 1\n")
	prev := "in"
	for i := 1; i <= n; i++ {
		nd := fmt.Sprintf("n%d", i)
		fmt.Fprintf(&b, "R%d %s %s 10\nC%d %s 0 20f\n", i, prev, nd, i, nd)
		prev = nd
	}
	fmt.Fprintf(&b, "Rout %s out 10\nCout out 0 50f\n", prev)
	fmt.Fprintf(&b, ".tran 0.1n 10n\n.print tran v(%s)\n.end\n", print)
	return b.String()
}

func TestReduceOptionsShapeKey(t *testing.T) {
	c := New(16)
	deck := ladderDeck(40, "out")

	plain, hit, err := c.Compile(deck, BuildOptions{})
	if err != nil || hit {
		t.Fatalf("plain compile: hit=%v err=%v", hit, err)
	}
	if plain.Sys.Reduction() != nil {
		t.Fatal("unreduced compile carries a reduction record")
	}

	red, hit, err := c.Compile(deck, BuildOptions{Reduce: true, ReduceTol: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("reduced compile of a deck cached unreduced answered a hit: reduction options are not in the key")
	}
	if red.Key == plain.Key || red.Sys == plain.Sys {
		t.Fatal("reduced and unreduced jobs share one artifact")
	}
	ri := red.Sys.Reduction()
	if ri == nil || ri.RemovedNodes == 0 {
		t.Fatalf("reduced compile did not reduce (info=%+v)", ri)
	}
	if red.Sys.NumNodes >= plain.Sys.NumNodes {
		t.Fatalf("reduced system is not smaller: %d vs %d nodes", red.Sys.NumNodes, plain.Sys.NumNodes)
	}
	// The deck's printed node must have survived the pass.
	if _, ok := red.Sys.Circuit.FindNode("out"); !ok {
		t.Fatal("printed node was collapsed")
	}

	// Same reduction options hit; different tolerance or keep list miss.
	if _, hit, _ = c.Compile(deck, BuildOptions{Reduce: true, ReduceTol: 0.02}); !hit {
		t.Fatal("identical reduced compile missed the cache")
	}
	if _, hit, _ = c.Compile(deck, BuildOptions{Reduce: true, ReduceTol: 0.1}); hit {
		t.Fatal("different ReduceTol answered a hit")
	}
	if _, hit, _ = c.Compile(deck, BuildOptions{Reduce: true, ReduceTol: 0.02, Keep: []string{"n20"}}); hit {
		t.Fatal("different keep list answered a hit")
	}
	// A deck differing only in its .PRINT card protects different nodes, so
	// it must not share the reduced artifact either.
	if _, hit, _ = c.Compile(ladderDeck(40, "n20"), BuildOptions{Reduce: true, ReduceTol: 0.02}); hit {
		t.Fatal("deck with a different .print card answered a hit under reduction")
	}

	// Exact mode on this all-ladder deck is a no-op: the entry must carry
	// the identity marker so the facade never re-reduces a cached System.
	exact, _, err := c.Compile(deck, BuildOptions{Reduce: true, ReduceTol: 0})
	if err != nil {
		t.Fatal(err)
	}
	eri := exact.Sys.Reduction()
	if eri == nil || eri.RemovedNodes != 0 || eri.RemovedDevices != 0 {
		t.Fatalf("exact-mode no-op must attach an identity marker (got %+v)", eri)
	}

	// Counter reconciliation: every lookup is a hit or a miss, and every
	// miss built exactly one System.
	hits, misses, builds := c.Counters()
	if hits+misses != 7 {
		t.Fatalf("hits+misses = %d, want 7 lookups", hits+misses)
	}
	if builds != misses {
		t.Fatalf("builds %d != misses %d", builds, misses)
	}
}

func TestReduceUnknownKeepFailsCompile(t *testing.T) {
	c := New(4)
	_, _, err := c.Compile(ladderDeck(10, "out"), BuildOptions{Reduce: true, Keep: []string{"ghost"}})
	var une *reduce.UnknownNodeError
	if !errors.As(err, &une) {
		t.Fatalf("err = %v, want *reduce.UnknownNodeError", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed reduction was cached")
	}
}

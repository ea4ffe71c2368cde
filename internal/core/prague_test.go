package core

// Unit tests for the Prague group scheduler: the static seeded
// schedule is the protocol's entire coordination mechanism, so its
// partition and determinism properties are pinned directly.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func TestPragueGroupsPartition(t *testing.T) {
	for _, tc := range []struct{ n, size int }{
		{4, 2}, {8, 4}, {8, 3}, {5, 2}, {7, 7}, {9, 4},
	} {
		for step := 0; step < 50; step++ {
			groups := PragueGroups(513, step, tc.n, tc.size)
			seen := make(map[int]bool)
			for gi, g := range groups {
				// Every group but the trailing remainder is full-size;
				// each is sorted ascending for canonical rendering.
				if gi < len(groups)-1 && len(g) != tc.size {
					t.Fatalf("n=%d size=%d step=%d: group %d has %d members",
						tc.n, tc.size, step, gi, len(g))
				}
				for i, w := range g {
					if i > 0 && g[i-1] >= w {
						t.Fatalf("group %v not sorted ascending", g)
					}
					if w < 0 || w >= tc.n || seen[w] {
						t.Fatalf("n=%d size=%d step=%d: worker %d repeated or out of range",
							tc.n, tc.size, step, w)
					}
					seen[w] = true
				}
			}
			if len(seen) != tc.n {
				t.Fatalf("n=%d size=%d step=%d: partition covers %d of %d workers",
					tc.n, tc.size, step, len(seen), tc.n)
			}
		}
	}
}

func TestPragueGroupsDeterministic(t *testing.T) {
	for step := 0; step < 20; step++ {
		a := PragueGroups(777, step, 8, 4)
		b := PragueGroups(777, step, 8, 4)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d: schedule not deterministic: %v vs %v", step, a, b)
		}
	}
	// Different seeds and different steps must actually vary the
	// partition — a constant schedule would satisfy every other test.
	base := PragueGroups(777, 0, 8, 4)
	varied := false
	for step := 1; step < 20 && !varied; step++ {
		varied = !reflect.DeepEqual(base, PragueGroups(777, step, 8, 4))
	}
	if !varied {
		t.Error("schedule identical across 20 steps")
	}
	if reflect.DeepEqual(base, PragueGroups(778, 0, 8, 4)) {
		t.Error("adjacent seeds produce the identical step-0 partition")
	}
}

func TestPragueGroupOfConsistent(t *testing.T) {
	const seed, n, size = 513, 8, 3
	for step := 0; step < 30; step++ {
		groups := PragueGroups(seed, step, n, size)
		for _, g := range groups {
			for _, w := range g {
				if got := PragueGroupOf(seed, step, n, size, w); !reflect.DeepEqual(got, g) {
					t.Fatalf("step %d worker %d: GroupOf %v, partition has %v", step, w, got, g)
				}
			}
		}
	}
}

func TestPragueLastShared(t *testing.T) {
	const seed, n, size, maxIter = 513, 8, 4, 40
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			last := PragueLastShared(seed, n, size, maxIter, a, b)
			if last != PragueLastShared(seed, n, size, maxIter, b, a) {
				t.Fatalf("PragueLastShared not symmetric for (%d,%d)", a, b)
			}
			// Cross-check against the schedule: last really is the
			// greatest shared step, and -1 means no shared step at all.
			want := -1
			for step := 0; step < maxIter; step++ {
				if containsInt(PragueGroupOf(seed, step, n, size, a), b) {
					want = step
				}
			}
			if last != want {
				t.Fatalf("PragueLastShared(%d,%d) = %d, schedule says %d", a, b, last, want)
			}
		}
	}
	// With group size 4 over 8 workers and 40 steps, every pair should
	// have shared at least one group — the drain barrier relies on most
	// pairs having a final protocol message.
	if PragueLastShared(seed, n, size, maxIter, 0, 1) < 0 {
		t.Error("pair (0,1) never shared a group in 40 steps")
	}
}

func TestPragueLastSharedAll(t *testing.T) {
	const seed, size, maxIter = 513, 3, 30
	for _, n := range []int{5, 8, 13} {
		for a := 0; a < n; a++ {
			last := PragueLastSharedAll(seed, n, size, maxIter, a)
			if last[a] != -1 {
				t.Fatalf("n=%d: entry for the worker itself is %d, want -1", n, last[a])
			}
			for b := 0; b < n; b++ {
				if b == a {
					continue
				}
				if want := PragueLastShared(seed, n, size, maxIter, a, b); last[b] != want {
					t.Fatalf("n=%d: PragueLastSharedAll(%d)[%d] = %d, PragueLastShared says %d",
						n, a, b, last[b], want)
				}
			}
		}
	}
}

// checkPartition asserts that the memoized partition of step equals
// the PragueGroups / PragueGroupOf reference.
func checkPartition(t *testing.T, s *pragueSchedule, step int) {
	t.Helper()
	part := s.at(step)
	want := PragueGroups(s.seed, step, s.n, s.size)
	if part.step != step || !reflect.DeepEqual(part.groups, want) {
		t.Fatalf("seed=%d n=%d size=%d step=%d: memo %v (step %d), PragueGroups %v",
			s.seed, s.n, s.size, step, part.groups, part.step, want)
	}
	for w := 0; w < s.n; w++ {
		if got, ref := s.groupOf(step, w), PragueGroupOf(s.seed, step, s.n, s.size, w); !reflect.DeepEqual(got, ref) {
			t.Fatalf("seed=%d n=%d size=%d step=%d worker %d: memo group %v, PragueGroupOf %v",
				s.seed, s.n, s.size, step, w, got, ref)
		}
	}
}

// TestPragueScheduleMatchesReference queries the memo for random
// (seed, n, size) — n often not a multiple of size — at steps in
// scrambled order spanning several times its capacity, so hits,
// evictions and recomputes all occur; every answer must equal the pure
// reference functions.
func TestPragueScheduleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(32)
		size := 2 + rng.Intn(n-1)
		s := newPragueSchedule(&PragueConfig{GroupSize: size, Seed: rng.Int63n(1 << 40)}, n)
		steps := rng.Perm(3 * pragueMemoSlots)
		// Revisit some steps: repeated queries hit the memo unless a
		// step mod-equal to them evicted it in between.
		steps = append(steps, steps[:pragueMemoSlots/2]...)
		for _, step := range steps {
			checkPartition(t, s, step)
		}
	}
}

// TestPragueScheduleConcurrent has many workers query one shared
// schedule at once — the engine's usage — across more steps than the
// memo holds. Run under -race it checks the memo's locking; every
// answer must still equal the reference.
func TestPragueScheduleConcurrent(t *testing.T) {
	const n, size, workers = 23, 4, 8
	s := newPragueSchedule(&PragueConfig{GroupSize: size, Seed: 99}, n)
	steps := 2*pragueMemoSlots + 5
	want := make([][][]int, steps) // want[step][w]: w's reference group
	for step := range want {
		for w := 0; w < n; w++ {
			want[step] = append(want[step], PragueGroupOf(s.seed, step, n, size, w))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 4*steps; i++ {
				step, w := rng.Intn(steps), rng.Intn(n)
				if got := s.groupOf(step, w); !reflect.DeepEqual(got, want[step][w]) {
					errs <- fmt.Sprintf("step %d worker %d: memo group %v, PragueGroupOf %v",
						step, w, got, want[step][w])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestPragueConfigValidate(t *testing.T) {
	cases := []struct {
		cfg  PragueConfig
		n    int
		ok   bool
		name string
	}{
		{PragueConfig{GroupSize: 2}, 4, true, "minimal"},
		{PragueConfig{GroupSize: 4, Quorum: 4}, 4, true, "full quorum explicit"},
		{PragueConfig{GroupSize: 1}, 4, false, "size below 2"},
		{PragueConfig{GroupSize: 5}, 4, false, "size above n"},
		{PragueConfig{GroupSize: 2, Quorum: 3}, 4, false, "quorum above size"},
		{PragueConfig{GroupSize: 2, Quorum: -1}, 4, false, "negative quorum"},
	}
	for _, tc := range cases {
		err := tc.cfg.validate(tc.n)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: config accepted", tc.name)
		}
	}
}

package dqn

import (
	"math/rand"
	"strings"
	"testing"
)

// TestBufferAddCopiesSlices is the regression test for the aliasing bug:
// stored State/Next/NextValid slices used to share backing arrays with the
// caller, so a caller reusing its encoding buffer between steps silently
// corrupted replayed experiences.
func TestBufferAddCopiesSlices(t *testing.T) {
	b := NewBuffer(4)
	state := []float64{1, 2, 3}
	next := []float64{4, 5, 6}
	nextValid := []int{0, 2}
	b.Add(Transition{State: state, Action: 1, Reward: 7, Next: next, NextValid: nextValid})

	// The caller reuses its buffers for the following step.
	state[0], next[0], nextValid[0] = -1, -1, -1

	rng := rand.New(rand.NewSource(1))
	got := b.Sample(rng, 1, nil)[0]
	if got.State[0] != 1 || got.Next[0] != 4 || got.NextValid[0] != 0 {
		t.Fatalf("stored transition aliases caller buffers: state %v next %v nextValid %v",
			got.State, got.Next, got.NextValid)
	}
}

// TestBufferEvictionReusesStorage checks that slot reuse on eviction keeps
// transitions independent: overwriting a slot must not disturb what Sample
// already returned semantics-wise (fresh values stored, old ones evicted).
func TestBufferEvictionReusesStorage(t *testing.T) {
	b := NewBuffer(2)
	for i := 0; i < 5; i++ {
		b.Add(Transition{
			State:     []float64{float64(i)},
			Next:      []float64{float64(i) * 10},
			NextValid: []int{i},
			Reward:    float64(i),
		})
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		tr := b.Sample(rng, 1, nil)[0]
		if tr.State[0] != tr.Reward || tr.Next[0] != tr.Reward*10 || tr.NextValid[0] != int(tr.Reward) {
			t.Fatalf("slot reuse mixed transitions: %+v", tr)
		}
		if tr.Reward < 3 {
			t.Fatalf("evicted transition %v still sampled", tr.Reward)
		}
	}
}

// TestLoadRejectsShapeMismatch is the regression test for checkpoint
// validation: loading a checkpoint saved for a different schema encoding or
// action space must fail with a descriptive error instead of succeeding and
// then panicking (or silently misbehaving) on the first Values call.
func TestLoadRejectsShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))

	t.Run("multihead action space", func(t *testing.T) {
		a := NewMultiHeadQ(3, []int{6}, 4, 1e-3, rng)
		b := NewMultiHeadQ(3, []int{6}, 5, 1e-3, rng) // different action space
		blob, _ := a.Save()
		err := b.Load(blob)
		if err == nil {
			t.Fatalf("multi-head Load accepted a checkpoint with 4 actions into a 5-action head")
		}
		if !strings.Contains(err.Error(), "action space") {
			t.Fatalf("undescriptive error: %v", err)
		}
		// The head must stay usable with its own weights.
		if got := len(b.Values([]float64{1, 0, 0}, []int{0, 1, 2, 3, 4})); got != 5 {
			t.Fatalf("head unusable after rejected load: %d values", got)
		}
	})

	t.Run("multihead state dim", func(t *testing.T) {
		a := NewMultiHeadQ(3, []int{6}, 4, 1e-3, rng)
		b := NewMultiHeadQ(7, []int{6}, 4, 1e-3, rng) // different schema encoding
		blob, _ := a.Save()
		if err := b.Load(blob); err == nil {
			t.Fatalf("multi-head Load accepted a state-dim-3 checkpoint into a state-dim-7 head")
		}
	})

	t.Run("scalar", func(t *testing.T) {
		feats := [][]float64{{1, 0}, {0, 1}}
		a := NewScalarQ(3, []int{6}, feats, 1e-3, rng)
		b := NewScalarQ(5, []int{6}, feats, 1e-3, rng) // different schema encoding
		blob, _ := a.Save()
		err := b.Load(blob)
		if err == nil {
			t.Fatalf("scalar Load accepted a mismatched checkpoint")
		}
		if !strings.Contains(err.Error(), "action features") {
			t.Fatalf("undescriptive error: %v", err)
		}
		if got := b.Values([]float64{1, 0, 0, 0, 0}, []int{0, 1}); len(got) != 2 {
			t.Fatalf("head unusable after rejected load: %v", got)
		}
	})

	t.Run("same shape still loads", func(t *testing.T) {
		a := NewMultiHeadQ(3, []int{6}, 4, 1e-3, rng)
		b := NewMultiHeadQ(3, []int{6}, 4, 1e-3, rng) // other weights, same layout
		blob, _ := a.Save()
		if err := b.Load(blob); err != nil {
			t.Fatalf("Load rejected a compatible checkpoint: %v", err)
		}
		want := a.Values([]float64{1, 0, 1}, []int{0, 1, 2, 3})
		got := b.Values([]float64{1, 0, 1}, []int{0, 1, 2, 3})
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("loaded head diverges: %v vs %v", got, want)
			}
		}
	})
}

// Package dqn implements Deep Q-learning as the paper uses it (§3.1, §4.1,
// Table 1): an experience replay buffer, an ε-greedy agent with ε-decay, a
// target network updated softly with factor τ, and the squared-error
// temporal-difference loss
//
//	(r + γ·max_a Q_θ'(s', a) − Q_θ(s, a))².
//
// Two Q-function heads are provided. ScalarQ is the paper-faithful network
// that consumes state ⊕ action features and emits one Q-value; MultiHeadQ
// consumes the state and emits a Q-value per action of the fixed global
// action list — mathematically equivalent for a fixed action space and an
// order of magnitude faster, hence the default. The choice is benchmarked in
// the ablation benches.
package dqn

import (
	"fmt"
	"math/rand"
)

// Transition is one (s, a, r, s') experience. NextValid carries the indices
// of the actions applicable in s', needed to compute max_a Q(s', a) without
// re-deriving state validity inside the learner.
type Transition struct {
	State     []float64
	Action    int
	Reward    float64
	Next      []float64
	NextValid []int
	// Terminal marks episode ends that should not bootstrap; the paper's
	// episodes are artificial restarts of a combinatorial search, so its
	// trainers always bootstrap (Terminal = false).
	Terminal bool
}

// bootstraps reports whether the TD target reads Q(Next, ·).
func (t *Transition) bootstraps() bool { return !t.Terminal && len(t.NextValid) > 0 }

// Buffer is a fixed-capacity ring buffer of transitions (the paper's
// experience replay buffer, capacity 10000 in Table 1).
type Buffer struct {
	data []Transition
	next int
	size int
}

// NewBuffer allocates a buffer with the given capacity.
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		panic(fmt.Sprintf("dqn: buffer capacity %d", capacity))
	}
	return &Buffer{data: make([]Transition, capacity)}
}

// Add stores a transition, evicting the oldest when full. The State, Next
// and NextValid slices are deep-copied into buffer-owned storage (reusing
// the evicted slot's capacity): callers routinely reuse their encoding
// buffers between steps, and an aliased store would silently corrupt
// replayed experiences.
func (b *Buffer) Add(t Transition) {
	slot := &b.data[b.next]
	slot.State = append(slot.State[:0], t.State...)
	slot.Next = append(slot.Next[:0], t.Next...)
	slot.NextValid = append(slot.NextValid[:0], t.NextValid...)
	slot.Action = t.Action
	slot.Reward = t.Reward
	slot.Terminal = t.Terminal
	b.next = (b.next + 1) % len(b.data)
	if b.size < len(b.data) {
		b.size++
	}
}

// Len returns the number of stored transitions.
func (b *Buffer) Len() int { return b.size }

// Cap returns the buffer capacity.
func (b *Buffer) Cap() int { return len(b.data) }

// Sample draws n transitions uniformly with replacement into dst (resized as
// needed) and returns it. It panics on an empty buffer.
func (b *Buffer) Sample(rng *rand.Rand, n int, dst []Transition) []Transition {
	if b.size == 0 {
		panic("dqn: sampling from empty buffer")
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, b.data[rng.Intn(b.size)])
	}
	return dst
}

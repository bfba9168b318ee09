package dqn

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"strings"
	"testing"

	"partadvisor/internal/nn"
)

// trainedAgent builds a small agent, fills its buffer and runs a few train
// steps so that every piece of state (target net, Adam moments, ε, ring
// position) is non-trivial.
func trainedAgent(t *testing.T, cfg Config, seed int64, steps int) *Agent {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	q := NewMultiHeadQ(4, []int{8}, 3, 5e-4, rand.New(rand.NewSource(seed+1)))
	a, err := NewAgent(q, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	feed := rand.New(rand.NewSource(seed + 2))
	for i := 0; i < steps; i++ {
		tr := Transition{
			State:     []float64{feed.Float64(), feed.Float64(), feed.Float64(), feed.Float64()},
			Action:    feed.Intn(3),
			Reward:    feed.NormFloat64(),
			Next:      []float64{feed.Float64(), feed.Float64(), feed.Float64(), feed.Float64()},
			NextValid: []int{0, 1, 2},
		}
		a.Observe(tr)
		a.TrainStep()
		if i%5 == 0 {
			a.DecayEpsilon()
		}
	}
	return a
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.BufferSize = 41 // holds a batch and forces the ring to wrap during trainedAgent
	return cfg
}

// TestAgentStateRoundTrip is the core exact-resume guarantee: a restored
// agent must produce bit-identical Q-values AND continue training
// bit-identically (same losses on the same batches), which exercises the
// target network, Adam moments/step count and the replay buffer layout.
func TestAgentStateRoundTrip(t *testing.T) {
	cfg := smallConfig()
	a := trainedAgent(t, cfg, 11, 50)
	blob, err := a.SaveState()
	if err != nil {
		t.Fatal(err)
	}

	// Fresh agent with the same shapes but different init — everything must
	// come from the snapshot.
	rng := rand.New(rand.NewSource(999))
	b, err := NewAgent(NewMultiHeadQ(4, []int{8}, 3, 5e-4, rand.New(rand.NewSource(998))), cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreState(blob); err != nil {
		t.Fatal(err)
	}

	if b.Epsilon != a.Epsilon {
		t.Fatalf("restored epsilon %v, want %v", b.Epsilon, a.Epsilon)
	}
	if b.Buffer.Len() != a.Buffer.Len() || b.Buffer.Cap() != a.Buffer.Cap() {
		t.Fatalf("restored buffer %d/%d, want %d/%d",
			b.Buffer.Len(), b.Buffer.Cap(), a.Buffer.Len(), a.Buffer.Cap())
	}
	state := []float64{0.3, -0.7, 0.1, 0.9}
	qa := a.Q.Values(state, []int{0, 1, 2})
	qb := b.Q.Values(state, []int{0, 1, 2})
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatalf("Q[%d] = %v after restore, want %v", i, qb[i], qa[i])
		}
	}

	// Continue training both on identical RNG streams: losses must match
	// exactly step for step.
	batch := make([]Transition, 0, BatchSize)
	rngA := rand.New(rand.NewSource(5))
	rngB := rand.New(rand.NewSource(5))
	for step := 0; step < 10; step++ {
		batch = a.Buffer.Sample(rngA, BatchSize, batch)
		la := a.Q.Train(batch, Gamma)
		a.Q.SoftUpdate(Tau)
		batch = b.Buffer.Sample(rngB, BatchSize, batch)
		lb := b.Q.Train(batch, Gamma)
		b.Q.SoftUpdate(Tau)
		if la != lb {
			t.Fatalf("training step %d: loss %v after restore, want %v", step, lb, la)
		}
	}
}

// TestBufferRoundTripWrapped checks the ring layout survives a round trip
// after wrapping: slot order and the next-insert cursor are preserved.
func TestBufferRoundTripWrapped(t *testing.T) {
	b := NewBuffer(5)
	for i := 0; i < 8; i++ { // wraps: next = 3, size = 5
		b.Add(Transition{State: []float64{float64(i)}, Action: i, Reward: float64(i)})
	}
	blob, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r := NewBuffer(3) // wrong capacity on purpose: Unmarshal re-allocates
	if err := r.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if r.Cap() != 5 || r.Len() != 5 || r.next != 3 {
		t.Fatalf("restored cap/len/next = %d/%d/%d, want 5/5/3", r.Cap(), r.Len(), r.next)
	}
	for i := range b.data {
		if b.data[i].Action != r.data[i].Action || b.data[i].State[0] != r.data[i].State[0] {
			t.Fatalf("slot %d differs after round trip: %+v vs %+v", i, r.data[i], b.data[i])
		}
	}
	// The restored buffer must evict in the same order as the original.
	b.Add(Transition{Action: 100})
	r.Add(Transition{Action: 100})
	if b.next != r.next || b.data[3].Action != r.data[3].Action {
		t.Fatal("restored buffer evicts in a different order")
	}
}

func TestBufferRejectsCorruptSnapshot(t *testing.T) {
	if err := NewBuffer(3).UnmarshalBinary([]byte("garbage")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

// TestLoadFullRejectsShapeMismatch: a snapshot from one action space must
// not load into a head with a different one.
func TestLoadFullRejectsShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := NewMultiHeadQ(4, []int{8}, 3, 5e-4, rng)
	blob, err := src.SaveFull()
	if err != nil {
		t.Fatal(err)
	}
	wrong := NewMultiHeadQ(4, []int{8}, 5, 5e-4, rng)
	if err := wrong.LoadFull(blob); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("shape mismatch not rejected: %v", err)
	}
	// And the agent-level restore propagates the failure.
	cfg := smallConfig()
	a, err := NewAgent(src, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < BatchSize; i++ {
		a.Observe(Transition{State: []float64{0, 0, 0, 0}, NextValid: []int{0}})
	}
	state, err := a.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	bad, err := NewAgent(wrong, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.RestoreState(state); err == nil {
		t.Fatal("agent restore into mismatched head accepted")
	}
}

// TestScalarQFullRoundTrip covers the paper-faithful head too.
func TestScalarQFullRoundTrip(t *testing.T) {
	feats := [][]float64{{1, 0}, {0, 1}, {1, 1}}
	rng := rand.New(rand.NewSource(3))
	src := NewScalarQ(4, []int{8}, feats, 5e-4, rng)
	batch := []Transition{
		{State: []float64{1, 2, 3, 4}, Action: 0, Reward: 1, Next: []float64{0, 0, 0, 0}, NextValid: []int{0, 1, 2}},
		{State: []float64{4, 3, 2, 1}, Action: 2, Reward: -1, Next: []float64{1, 1, 1, 1}, NextValid: []int{0, 1}},
	}
	for i := 0; i < 5; i++ {
		src.Train(batch, 0.99)
		src.SoftUpdate(0.1)
	}
	blob, err := src.SaveFull()
	if err != nil {
		t.Fatal(err)
	}
	dst := NewScalarQ(4, []int{8}, feats, 5e-4, rand.New(rand.NewSource(4)))
	if err := dst.LoadFull(blob); err != nil {
		t.Fatal(err)
	}
	state := []float64{0.5, 0.5, -0.5, 0.25}
	qa, qb := src.Values(state, []int{0, 1, 2}), dst.Values(state, []int{0, 1, 2})
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatalf("scalar Q[%d] = %v after restore, want %v", i, qb[i], qa[i])
		}
	}
	if la, lb := src.Train(batch, 0.99), dst.Train(batch, 0.99); la != lb {
		t.Fatalf("post-restore scalar training loss %v, want %v", lb, la)
	}
}

// craftedFull re-encodes a trained head's full snapshot after edit changes
// its decoded form.
func craftedFull(t testing.TB, q *MultiHeadQ, edit func(g *qFullGob)) []byte {
	t.Helper()
	blob, err := q.SaveFull()
	if err != nil {
		t.Fatal(err)
	}
	var g qFullGob
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&g); err != nil {
		t.Fatal(err)
	}
	edit(&g)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// trainedHead is a 4-8-3 multi-head Q after a few updates, so its Adam
// moments are allocated and non-zero.
func trainedHead(seed int64) (*MultiHeadQ, []Transition) {
	q := NewMultiHeadQ(4, []int{8}, 3, 5e-4, rand.New(rand.NewSource(seed)))
	batch := []Transition{
		{State: []float64{1, 0, 0.5, 0}, Action: 1, Reward: 1, Next: []float64{0, 1, 0, 0}, NextValid: []int{0, 2}},
		{State: []float64{0, 1, 0, 1}, Action: 2, Reward: -1, Next: []float64{1, 1, 0, 0}, NextValid: []int{1}},
	}
	for i := 0; i < 3; i++ {
		q.Train(batch, 0.9)
		q.SoftUpdate(0.1)
	}
	return q, batch
}

// badFullSnapshots are full snapshots whose input and output widths match a
// trainedHead but which the training kernels cannot take. Before LoadFull
// checked every layer and moment, it accepted both, and the next
// SoftUpdate or Train panicked.
func badFullSnapshots(t testing.TB) map[string][]byte {
	t.Helper()
	q, _ := trainedHead(21)
	return map[string][]byte{
		"target with other hidden layers": craftedFull(t, q, func(g *qFullGob) {
			other := nn.NewNetwork([]int{4, 8, 8, 3}, rand.New(rand.NewSource(22)))
			b, err := other.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			g.Target = b
		}),
		"one-element Adam moments": craftedFull(t, q, func(g *qFullGob) {
			for _, ms := range [][][]float64{g.Opt.MW, g.Opt.VW, g.Opt.MB, g.Opt.VB} {
				for i := range ms {
					ms[i] = ms[i][:1]
				}
			}
		}),
	}
}

// TestLoadFullRejectsWhatTheKernelsCannotTake: each bad snapshot is an
// error, not a panic later, and a rejected load leaves the head's networks
// and optimizer as they were.
func TestLoadFullRejectsWhatTheKernelsCannotTake(t *testing.T) {
	for name, blob := range badFullSnapshots(t) {
		t.Run(name, func(t *testing.T) {
			q, batch := trainedHead(23)
			before, err := q.SaveFull()
			if err != nil {
				t.Fatal(err)
			}
			if err := q.LoadFull(blob); err == nil {
				t.Fatal("LoadFull accepted the snapshot")
			}
			after, err := q.SaveFull()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("a rejected LoadFull changed the head's state")
			}
			q.Train(batch, 0.9)
			q.SoftUpdate(0.1)
		})
	}
}

// otherHiddenModel is a model whose input and output widths match a
// trainedHead but whose hidden layer is 16 wide, not 8. Before Load checked
// every layer it accepted the model, and the next Train panicked in Adam.
func otherHiddenModel(t testing.TB) []byte {
	t.Helper()
	b, err := nn.NewNetwork([]int{4, 16, 3}, rand.New(rand.NewSource(26))).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLoadRejectsOtherHiddenLayers: Load refuses a model the training
// kernels cannot take, and the head it refused still trains.
func TestLoadRejectsOtherHiddenLayers(t *testing.T) {
	q, batch := trainedHead(27)
	err := q.Load(otherHiddenModel(t))
	q.Train(batch, 0.9)
	q.SoftUpdate(0.1)
	if err == nil || !strings.Contains(err.Error(), "layer 0") {
		t.Fatalf("Load of a 4-16-3 model into a 4-8-3 head: err = %v", err)
	}
}

// FuzzLoadFull: no bytes make LoadFull or Load panic, and a head that
// accepted a snapshot or model trains and soft-updates without panicking.
func FuzzLoadFull(f *testing.F) {
	q, _ := trainedHead(24)
	valid, err := q.SaveFull()
	if err != nil {
		f.Fatal(err)
	}
	model, err := q.Save()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(model)
	f.Add(otherHiddenModel(f))
	for _, blob := range badFullSnapshots(f) {
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, load := range []func(*MultiHeadQ) error{
			func(q *MultiHeadQ) error { return q.LoadFull(data) },
			func(q *MultiHeadQ) error { return q.Load(data) },
		} {
			q, batch := trainedHead(25)
			if err := load(q); err != nil {
				continue
			}
			q.Train(batch, 0.9)
			q.SoftUpdate(0.1)
		}
	})
}

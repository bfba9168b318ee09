package dqn

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"partadvisor/internal/nn"
)

// This file implements full-state serialization for crash-safe training
// checkpoints. QFunc.Save/Load only cover the online network (the target
// is reset to a clone on Load), which is fine for shipping a trained
// model but loses information mid-training: resuming a killed run
// bit-identically also needs the target network, the Adam moments and
// step count, the replay buffer, and ε.

// FullStater is implemented by Q-heads that can serialize their complete
// training state (online + target networks + optimizer).
type FullStater interface {
	SaveFull() ([]byte, error)
	LoadFull(data []byte) error
}

// qFullGob is the gob shadow of one head's full training state.
type qFullGob struct {
	Online, Target []byte
	Opt            nn.AdamState
}

// saveFull snapshots both networks and the Adam state.
func saveFull(online, target *nn.Network, opt *nn.Adam) ([]byte, error) {
	ob, err := online.MarshalBinary()
	if err != nil {
		return nil, err
	}
	tb, err := target.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(qFullGob{Online: ob, Target: tb, Opt: opt.State()}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// loadFull decodes both networks of a full snapshot for a head whose
// constructed online network is head, and restores the snapshot's Adam
// state into opt only once every shape checks out: both networks against
// the head's fits (the check Load applies), then every Adam moment against
// head. The training kernels index weights, moments and the target by the
// online network's shapes, so a snapshot that disagreed anywhere would
// otherwise panic on the first Train or SoftUpdate.
func loadFull(data []byte, head *nn.Network, opt *nn.Adam, fits func(which string, net *nn.Network) error) (online, target *nn.Network, err error) {
	var g qFullGob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&g); err != nil {
		return nil, nil, err
	}
	online, target = &nn.Network{}, &nn.Network{}
	if err := online.UnmarshalBinary(g.Online); err != nil {
		return nil, nil, err
	}
	if err := target.UnmarshalBinary(g.Target); err != nil {
		return nil, nil, err
	}
	if err := fits("snapshot online", online); err != nil {
		return nil, nil, err
	}
	if err := fits("snapshot target", target); err != nil {
		return nil, nil, err
	}
	if err := momentsFit(g.Opt, head); err != nil {
		return nil, nil, err
	}
	if err := opt.SetState(g.Opt); err != nil {
		return nil, nil, err
	}
	return online, target, nil
}

// sameLayers reports the first way net's layers differ from head's: their
// count, a weight or bias shape, or an activation.
func sameLayers(which string, net, head *nn.Network) error {
	if len(net.Layers) != len(head.Layers) {
		return fmt.Errorf("dqn: %s network has %d layers, the head has %d — a model loads only into a head with the hidden layout it was saved with", which, len(net.Layers), len(head.Layers))
	}
	for i, l := range net.Layers {
		h := head.Layers[i]
		if l.W.Rows != h.W.Rows || l.W.Cols != h.W.Cols || l.B.Cols != h.B.Cols || l.Act != h.Act {
			return fmt.Errorf("dqn: %s layer %d is %dx%d+%d (activation %d), the head's is %dx%d+%d (activation %d) — a model loads only into a head with the hidden layout it was saved with",
				which, i, l.W.Rows, l.W.Cols, l.B.Cols, l.Act, h.W.Rows, h.W.Cols, h.B.Cols, h.Act)
		}
	}
	return nil
}

// momentsFit reports whether Adam moments are absent (an optimizer that
// has not stepped yet) or one per parameter of head, layer by layer.
func momentsFit(s nn.AdamState, head *nn.Network) error {
	if len(s.MW) == 0 && len(s.VW) == 0 && len(s.MB) == 0 && len(s.VB) == 0 {
		return nil
	}
	n := len(head.Layers)
	if len(s.MW) != n || len(s.VW) != n || len(s.MB) != n || len(s.VB) != n {
		return fmt.Errorf("dqn: snapshot Adam moments cover %d/%d/%d/%d layers, the head has %d",
			len(s.MW), len(s.VW), len(s.MB), len(s.VB), n)
	}
	for i, l := range head.Layers {
		w, b := len(l.W.Data), len(l.B.Data)
		if len(s.MW[i]) != w || len(s.VW[i]) != w || len(s.MB[i]) != b || len(s.VB[i]) != b {
			return fmt.Errorf("dqn: snapshot Adam moments of layer %d have %d/%d weights and %d/%d biases, the layer %d and %d",
				i, len(s.MW[i]), len(s.VW[i]), len(s.MB[i]), len(s.VB[i]), w, b)
		}
	}
	return nil
}

// SaveFull implements FullStater.
func (q *MultiHeadQ) SaveFull() ([]byte, error) { return saveFull(q.online, q.target, q.opt) }

// LoadFull implements FullStater with the same shape validation as Load
// for both networks, and checks the Adam moments too.
func (q *MultiHeadQ) LoadFull(data []byte) error {
	online, target, err := loadFull(data, q.online, q.opt, q.fits)
	if err != nil {
		return err
	}
	q.online, q.target = online, target
	return nil
}

// SaveFull implements FullStater.
func (q *ScalarQ) SaveFull() ([]byte, error) { return saveFull(q.online, q.target, q.opt) }

// LoadFull implements FullStater with the same shape validation as Load
// for both networks, and checks the Adam moments too.
func (q *ScalarQ) LoadFull(data []byte) error {
	online, target, err := loadFull(data, q.online, q.opt, q.fits)
	if err != nil {
		return err
	}
	q.online, q.target = online, target
	return nil
}

// bufferGob is the gob shadow of Buffer. Only the filled prefix is
// encoded: when size < cap the tail slots are untouched zero values, and
// when the ring has wrapped size == cap.
type bufferGob struct {
	Cap, Next, Size int
	Data            []Transition
}

// MarshalBinary serializes the replay buffer with its exact slot layout,
// so a restored buffer replays identically under the same RNG stream.
func (b *Buffer) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	g := bufferGob{Cap: len(b.data), Next: b.next, Size: b.size, Data: b.data[:b.size]}
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a snapshot taken by MarshalBinary.
func (b *Buffer) UnmarshalBinary(data []byte) error {
	var g bufferGob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&g); err != nil {
		return err
	}
	if g.Cap <= 0 || g.Size < 0 || g.Size > g.Cap || g.Next < 0 || g.Next >= g.Cap || len(g.Data) != g.Size {
		return fmt.Errorf("dqn: corrupt buffer snapshot (cap %d, size %d, next %d, %d entries)",
			g.Cap, g.Size, g.Next, len(g.Data))
	}
	b.data = make([]Transition, g.Cap)
	copy(b.data, g.Data)
	b.next = g.Next
	b.size = g.Size
	return nil
}

// agentGob is the gob shadow of an agent's full training state.
type agentGob struct {
	Q       []byte
	Buffer  []byte
	Epsilon float64
}

// SaveState serializes the agent's complete training state: full Q state
// (online + target + optimizer), replay buffer and ε. The head must
// implement FullStater (both built-in heads do).
func (a *Agent) SaveState() ([]byte, error) {
	fs, ok := a.Q.(FullStater)
	if !ok {
		return nil, fmt.Errorf("dqn: Q head %T cannot snapshot its full state", a.Q)
	}
	qb, err := fs.SaveFull()
	if err != nil {
		return nil, err
	}
	bb, err := a.Buffer.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(agentGob{Q: qb, Buffer: bb, Epsilon: a.Epsilon}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RestoreState restores a snapshot taken by SaveState into an agent built
// with the same configuration.
func (a *Agent) RestoreState(data []byte) error {
	fs, ok := a.Q.(FullStater)
	if !ok {
		return fmt.Errorf("dqn: Q head %T cannot restore a full state", a.Q)
	}
	var g agentGob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&g); err != nil {
		return err
	}
	if err := fs.LoadFull(g.Q); err != nil {
		return err
	}
	restored := NewBuffer(a.cfg.BufferSize)
	if err := restored.UnmarshalBinary(g.Buffer); err != nil {
		return err
	}
	if restored.Cap() != a.cfg.BufferSize {
		return fmt.Errorf("dqn: snapshot buffer capacity %d does not match configured %d",
			restored.Cap(), a.cfg.BufferSize)
	}
	a.Buffer = restored
	a.Epsilon = g.Epsilon
	return nil
}

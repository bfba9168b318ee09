package dqn

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestBufferRing(t *testing.T) {
	b := NewBuffer(3)
	if b.Cap() != 3 || b.Len() != 0 {
		t.Fatalf("fresh buffer: cap %d len %d", b.Cap(), b.Len())
	}
	for i := 0; i < 5; i++ {
		b.Add(Transition{Reward: float64(i)})
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	// Rewards 2,3,4 should remain.
	rng := rand.New(rand.NewSource(1))
	seen := map[float64]bool{}
	for i := 0; i < 200; i++ {
		for _, tr := range b.Sample(rng, 3, nil) {
			seen[tr.Reward] = true
		}
	}
	for _, old := range []float64{0, 1} {
		if seen[old] {
			t.Fatalf("evicted reward %v sampled", old)
		}
	}
	for _, cur := range []float64{2, 3, 4} {
		if !seen[cur] {
			t.Fatalf("live reward %v never sampled", cur)
		}
	}
}

func TestBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("NewBuffer accepted capacity 0")
		}
	}()
	NewBuffer(0)
}

func TestBufferSampleEmptyPanics(t *testing.T) {
	b := NewBuffer(2)
	defer func() {
		if recover() == nil {
			t.Fatalf("Sample on empty buffer did not panic")
		}
	}()
	b.Sample(rand.New(rand.NewSource(1)), 1, nil)
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Gamma = 0 },
		func(c *Config) { c.Gamma = 1 },
		func(c *Config) { c.Epsilon = -0.1 },
		func(c *Config) { c.EpsilonDecay = 0 },
		func(c *Config) { c.BufferSize = 0 },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.Tau = 0 },
		func(c *Config) { c.LearningRate = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestDefaultConfigMatchesPaperTable1(t *testing.T) {
	c := DefaultConfig()
	if c.LearningRate != 5e-4 || c.Tau != 1e-3 || c.BufferSize != 10000 ||
		c.BatchSize != 32 || c.EpsilonDecay != 0.997 || c.Gamma != 0.99 ||
		len(c.Hidden) != 2 || c.Hidden[0] != 128 || c.Hidden[1] != 64 {
		t.Fatalf("DefaultConfig deviates from Table 1: %+v", c)
	}
}

func TestEpsilonDecaySchedule(t *testing.T) {
	c := DefaultConfig()
	e600 := c.EpsilonAfter(600)
	want := math.Pow(0.997, 600)
	if math.Abs(e600-want) > 1e-12 {
		t.Fatalf("EpsilonAfter(600) = %v, want %v", e600, want)
	}
	if got := c.EpsilonAfter(100000); got != c.EpsilonMin {
		t.Fatalf("EpsilonAfter floor = %v", got)
	}
}

// chainEnv is a tiny deterministic MDP: states 0..4 on a line, actions
// left/right, reward 1 only when reaching state 4. Optimal policy: always
// right. Q-learning must find it.
type chainEnv struct {
	pos int
}

const chainLen = 5

func (e *chainEnv) state() []float64 {
	s := make([]float64, chainLen)
	s[e.pos] = 1
	return s
}

func (e *chainEnv) step(a int) (reward float64) {
	if a == 1 && e.pos < chainLen-1 {
		e.pos++
	} else if a == 0 && e.pos > 0 {
		e.pos--
	}
	if e.pos == chainLen-1 {
		return 1
	}
	return 0
}

func trainChain(t *testing.T, q QFunc, cfg Config, rng *rand.Rand) *Agent {
	t.Helper()
	agent, err := NewAgent(q, cfg, rng)
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	valid := []int{0, 1}
	for ep := 0; ep < 150; ep++ {
		env := &chainEnv{}
		for step := 0; step < 12; step++ {
			s := env.state()
			a := agent.SelectAction(s, valid)
			r := env.step(a)
			agent.Observe(Transition{State: s, Action: a, Reward: r, Next: env.state(), NextValid: valid})
			agent.TrainStep()
		}
		agent.DecayEpsilon()
	}
	return agent
}

func chainGreedyReachesGoal(agent *Agent) bool {
	env := &chainEnv{}
	for step := 0; step < chainLen; step++ {
		a := agent.Greedy(env.state(), []int{0, 1})
		env.step(a)
	}
	return env.pos == chainLen-1
}

func TestMultiHeadQLearnsChain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := DefaultConfig()
	cfg.Hidden = []int{24}
	cfg.LearningRate = 5e-3
	cfg.EpsilonDecay = 0.97
	q := NewMultiHeadQ(chainLen, cfg.Hidden, 2, cfg.LearningRate, rng)
	agent := trainChain(t, q, cfg, rng)
	if !chainGreedyReachesGoal(agent) {
		t.Fatalf("greedy policy does not reach the goal")
	}
}

func TestScalarQLearnsChain(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cfg := DefaultConfig()
	cfg.Hidden = []int{24}
	cfg.LearningRate = 5e-3
	cfg.EpsilonDecay = 0.97
	feats := [][]float64{{1, 0}, {0, 1}}
	q := NewScalarQ(chainLen, cfg.Hidden, feats, cfg.LearningRate, rng)
	agent := trainChain(t, q, cfg, rng)
	if !chainGreedyReachesGoal(agent) {
		t.Fatalf("greedy policy does not reach the goal")
	}
}

func TestValuesRespectActionSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	q := NewMultiHeadQ(3, []int{8}, 4, 1e-3, rng)
	s := []float64{1, 0, 0}
	all := q.Values(s, []int{0, 1, 2, 3})
	sub := q.Values(s, []int{2, 0})
	if sub[0] != all[2] || sub[1] != all[0] {
		t.Fatalf("subset values misaligned: %v vs %v", sub, all)
	}
}

func TestGreedyPicksArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	q := NewMultiHeadQ(2, []int{6}, 3, 1e-3, rng)
	cfg := DefaultConfig()
	cfg.Epsilon = 0
	agent, _ := NewAgent(q, cfg, rng)
	s := []float64{0.5, -0.5}
	vals := q.Values(s, []int{0, 1, 2})
	bestIdx, bestV := 0, math.Inf(-1)
	for i, v := range vals {
		if v > bestV {
			bestV, bestIdx = v, i
		}
	}
	if got := agent.Greedy(s, []int{0, 1, 2}); got != bestIdx {
		t.Fatalf("Greedy = %d, want %d (vals %v)", got, bestIdx, vals)
	}
	// Restricting to the complement must pick among the rest.
	var rest []int
	for i := 0; i < 3; i++ {
		if i != bestIdx {
			rest = append(rest, i)
		}
	}
	if got := agent.Greedy(s, rest); got == bestIdx {
		t.Fatalf("Greedy ignored valid-set restriction")
	}
}

func TestEpsilonOneIsUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	q := NewMultiHeadQ(1, []int{4}, 3, 1e-3, rng)
	cfg := DefaultConfig()
	cfg.Epsilon = 1
	agent, _ := NewAgent(q, cfg, rng)
	counts := map[int]int{}
	for i := 0; i < 3000; i++ {
		counts[agent.SelectAction([]float64{1}, []int{0, 1, 2})]++
	}
	for a, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("action %d selected %d/3000 times under uniform exploration", a, c)
		}
	}
}

func TestTrainStepNoopUntilBatchFull(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	q := NewMultiHeadQ(2, []int{4}, 2, 1e-3, rng)
	cfg := DefaultConfig()
	cfg.BatchSize = 8
	agent, _ := NewAgent(q, cfg, rng)
	before, _ := q.Save()
	if loss, trained := agent.TrainStep(); trained || loss != 0 {
		t.Fatalf("TrainStep on empty buffer = (%v, %v)", loss, trained)
	}
	after, _ := q.Save()
	if string(before) != string(after) {
		t.Fatalf("TrainStep mutated weights before batch full")
	}
	// Fill the buffer to one batch: now TrainStep must report trained=true,
	// so a logged zero loss is a genuine zero and not a buffer-warmup no-op.
	for i := 0; i < 8; i++ {
		agent.Observe(Transition{State: []float64{1, 0}, Action: i % 2, Reward: 1,
			Next: []float64{0, 1}, NextValid: []int{0, 1}})
	}
	if _, trained := agent.TrainStep(); !trained {
		t.Fatalf("TrainStep with a full batch reported trained=false")
	}
}

func TestTerminalTransitionsDoNotBootstrap(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	q := NewMultiHeadQ(1, []int{8}, 1, 5e-3, rng)
	// Single state, single action, terminal reward 2: Q must converge to 2,
	// not 2/(1-γ).
	tr := Transition{State: []float64{1}, Action: 0, Reward: 2, Next: []float64{1}, NextValid: []int{0}, Terminal: true}
	batch := make([]Transition, 16)
	for i := range batch {
		batch[i] = tr
	}
	for i := 0; i < 2000; i++ {
		q.Train(batch, 0.99)
	}
	got := q.Values([]float64{1}, []int{0})[0]
	if math.Abs(got-2) > 0.2 {
		t.Fatalf("terminal Q = %v, want ~2", got)
	}
}

func TestNonTerminalBootstraps(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	q := NewMultiHeadQ(1, []int{8}, 1, 5e-3, rng)
	// Self-loop with reward 1 and γ=0.5: fixed point Q = 1/(1-0.5) = 2.
	tr := Transition{State: []float64{1}, Action: 0, Reward: 1, Next: []float64{1}, NextValid: []int{0}}
	batch := make([]Transition, 16)
	for i := range batch {
		batch[i] = tr
	}
	for i := 0; i < 3000; i++ {
		q.Train(batch, 0.5)
		q.SoftUpdate(0.05)
	}
	got := q.Values([]float64{1}, []int{0})[0]
	if math.Abs(got-2) > 0.3 {
		t.Fatalf("bootstrapped Q = %v, want ~2", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, head := range []QFunc{
		NewMultiHeadQ(3, []int{6}, 4, 1e-3, rng),
		NewScalarQ(3, []int{6}, [][]float64{{1, 0}, {0, 1}, {1, 1}, {0, 0}}, 1e-3, rng),
	} {
		data, err := head.Save()
		if err != nil {
			t.Fatalf("Save: %v", err)
		}
		before := head.Values([]float64{1, 0, 1}, []int{0, 1, 2, 3})
		if err := head.Load(data); err != nil {
			t.Fatalf("Load: %v", err)
		}
		after := head.Values([]float64{1, 0, 1}, []int{0, 1, 2, 3})
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("round trip changed values: %v vs %v", before, after)
			}
		}
		if err := head.Load([]byte("garbage")); err == nil {
			t.Fatalf("Load accepted garbage")
		}
	}
}

func TestNewAgentRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Gamma = 2
	_, err := NewAgent(nil, cfg, rand.New(rand.NewSource(1)))
	if err == nil {
		t.Fatalf("NewAgent accepted bad config")
	}
}

func TestDoubleDQNLearnsChain(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfg := DefaultConfig()
	cfg.Hidden = []int{24}
	cfg.LearningRate = 5e-3
	cfg.EpsilonDecay = 0.97
	cfg.Double = true
	q := NewMultiHeadQ(chainLen, cfg.Hidden, 2, cfg.LearningRate, rng)
	q.Double = true
	agent := trainChain(t, q, cfg, rng)
	if !chainGreedyReachesGoal(agent) {
		t.Fatalf("double-DQN greedy policy does not reach the goal")
	}
}

func TestDoubleDQNTerminalMatchesVanilla(t *testing.T) {
	// On terminal transitions the Double flag must not change targets.
	rng := rand.New(rand.NewSource(22))
	q := NewMultiHeadQ(1, []int{8}, 1, 5e-3, rng)
	q.Double = true
	tr := Transition{State: []float64{1}, Action: 0, Reward: 3, Next: []float64{1}, NextValid: []int{0}, Terminal: true}
	batch := make([]Transition, 16)
	for i := range batch {
		batch[i] = tr
	}
	for i := 0; i < 2000; i++ {
		q.Train(batch, 0.99)
	}
	got := q.Values([]float64{1}, []int{0})[0]
	if math.Abs(got-3) > 0.3 {
		t.Fatalf("terminal Q = %v, want ~3", got)
	}
}

// TestTrainRejectsWrongStateLength: Train copies encodings into pooled batch
// rows, so a state shorter than the network input used to train on the tail
// the previous batch left behind. Both heads must refuse it, and a Next they
// are about to read; a Next that is never read (terminal, or no valid next
// action) may be absent.
func TestTrainRejectsWrongStateLength(t *testing.T) {
	const stateDim = 4
	full := []float64{1, 0, 1, 0}
	heads := map[string]func() QFunc{
		"MultiHeadQ": func() QFunc {
			return NewMultiHeadQ(stateDim, []int{8}, 2, 1e-3, rand.New(rand.NewSource(23)))
		},
		"ScalarQ": func() QFunc {
			return NewScalarQ(stateDim, []int{8}, [][]float64{{1, 0}, {0, 1}}, 1e-3, rand.New(rand.NewSource(23)))
		},
	}
	for name, mk := range heads {
		q := mk()
		ok := []Transition{
			{State: full, Action: 1, Reward: 1, Next: full, NextValid: []int{0, 1}},
			{State: full, Action: 0, Reward: 1, Terminal: true},
			{State: full, Action: 0, Reward: 1, Next: full},
		}
		q.Train(ok, 0.9) // fills the pooled rows a short state would expose
		for what, bad := range map[string]Transition{
			"short State": {State: full[:3], Action: 0, Next: full, NextValid: []int{0}},
			"long State":  {State: append(full[:4:4], 1), Action: 0, Next: full, NextValid: []int{0}},
			"short Next":  {State: full, Action: 0, Next: full[:2], NextValid: []int{0}},
			"nil Next":    {State: full, Action: 0, NextValid: []int{1}},
		} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "dqn: Train transition 1 has") {
						t.Errorf("%s, %s: Train panicked with %q, want a length message for transition 1", name, what, msg)
					}
				}()
				q.Train([]Transition{ok[0], bad}, 0.9)
			}()
		}
	}
}

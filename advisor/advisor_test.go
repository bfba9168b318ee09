package advisor

import (
	"bytes"
	"strings"
	"testing"
)

func TestSessionEndToEnd(t *testing.T) {
	s, err := NewSession(Micro(), MemoryCluster(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Speed the test up: tiny training budget through the exposed config.
	hp := s.Advisor.HP
	hp.Episodes = 30
	hp.OnlineEpisodes = 6
	adv := s.Advisor
	adv.HP = hp

	st, err := s.TrainAndSuggest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("nil suggestion")
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	base := s.MeasureWorkload(s.Space.InitialState())
	got := s.MeasureWorkload(st)
	if got > base*1.2 {
		t.Fatalf("suggestion clearly worse than s0: %v vs %v", got, base)
	}
	// Online refinement runs and leaves accounting behind.
	oc, err := s.TrainOnline(0.3, 20)
	if err != nil {
		t.Fatal(err)
	}
	if oc.Stats.QueriesExecuted == 0 {
		t.Fatalf("online phase executed nothing")
	}
	if _, err := s.Suggest(s.Bench.Workload.UniformFreq()); err != nil {
		t.Fatal(err)
	}
}

func TestSessionFlavorSelection(t *testing.T) {
	disk, err := NewSession(Micro(), DiskCluster(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := disk.Engine.EstimateCost(disk.Space.InitialState(), disk.Bench.Workload.Queries[0].Graph); !ok {
		t.Fatalf("disk cluster should expose optimizer estimates")
	}
	mem, err := NewSession(Micro(), MemoryCluster(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mem.Engine.EstimateCost(mem.Space.InitialState(), mem.Bench.Workload.Queries[0].Graph); ok {
		t.Fatalf("memory cluster should hide optimizer estimates")
	}
}

// TestStagedOnlineEqualsChained: TrainOnline(rate, minRows) is documented as
// PrepareOnline on a sample seeded advisor-seed+7, then RefineOnline. Two
// sessions with one seed — on separate, identically built deployments, since
// online training moves the engine — must end with the same model, bit for
// bit, whichever way the caller spells it.
func TestStagedOnlineEqualsChained(t *testing.T) {
	model := func(staged bool) []byte {
		hp := ReproHyperparams(false)
		hp.Episodes, hp.OnlineEpisodes = 20, 5
		s, err := NewDeployment(Micro(), DiskCluster(), 0.2, 4).NewSession(hp, 9)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.TrainOffline(); err != nil {
			t.Fatal(err)
		}
		if staged {
			oc, err := s.PrepareOnline(s.SampleEngine(0.3, 20, 9+7))
			if err != nil {
				t.Fatal(err)
			}
			if oc.Stats.SetupSeconds <= 0 {
				t.Fatalf("scale-factor calibration booked no setup time")
			}
			err = s.RefineOnline(oc)
			if err != nil {
				t.Fatal(err)
			}
		} else if _, err := s.TrainOnline(0.3, 20); err != nil {
			t.Fatal(err)
		}
		blob, err := s.Advisor.SaveModel()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	if !bytes.Equal(model(true), model(false)) {
		t.Fatal("staged PrepareOnline+RefineOnline and TrainOnline trained different models")
	}
}

func TestOnlineBeforeOfflineFails(t *testing.T) {
	s, err := NewSession(Micro(), MemoryCluster(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TrainOnline(0.3, 20); err == nil {
		t.Fatalf("online refinement without offline bootstrap accepted")
	}
}

func TestParseWorkloadAndQuery(t *testing.T) {
	b := Micro()
	wl, err := ParseWorkload("w", b.Schema, map[string]string{
		"q": "SELECT sum(a_v) FROM a, b WHERE a_b = b_id",
	}, []string{"q"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wl.Size() != 2 {
		t.Fatalf("Size = %d", wl.Size())
	}
	q, err := ParseQuery("extra", "SELECT c_v FROM c WHERE c_v < 10", b.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if slot, err := wl.AddQuery(q); err != nil || slot != 1 {
		t.Fatalf("AddQuery = %d, %v", slot, err)
	}
	if _, err := ParseQuery("bad", "SELECT * FROM nosuch", b.Schema); err == nil {
		t.Fatalf("bad query accepted")
	}
}

// TestParseQueryRejectsDecimalOutsideInt64: a decimal literal that int64
// cannot hold is an error, not the platform's out-of-range conversion;
// decimals that fit still parse, truncated toward zero.
func TestParseQueryRejectsDecimalOutsideInt64(t *testing.T) {
	b := Micro()
	for _, lit := range []string{"99999999999999999999.0", "-99999999999999999999.0", "9223372036854775808.0"} {
		_, err := ParseQuery("big", "SELECT c_v FROM c WHERE c_v < "+lit, b.Schema)
		if err == nil || !strings.Contains(err.Error(), "bad numeric literal") {
			t.Errorf("literal %s: err = %v, want bad numeric literal", lit, err)
		}
	}
	for _, lit := range []string{"9223372036854774784.0", "12.7", "-12.7"} {
		if _, err := ParseQuery("fits", "SELECT c_v FROM c WHERE c_v < "+lit, b.Schema); err != nil {
			t.Errorf("literal %s rejected: %v", lit, err)
		}
	}
}

func TestBenchmarkConstructors(t *testing.T) {
	for _, b := range []*Benchmark{SSB(), TPCDS(), TPCCH(), Micro()} {
		if b.Schema == nil || b.Workload == nil {
			t.Fatalf("%s: incomplete benchmark", b.Name)
		}
	}
	if PaperHyperparams(true).Episodes != 1200 {
		t.Fatalf("paper hyperparams wrong")
	}
	if err := ReproHyperparams(false).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionExplainAndCommittee(t *testing.T) {
	s, err := NewSession(Micro(), MemoryCluster(), 5)
	if err != nil {
		t.Fatal(err)
	}
	hp := s.Advisor.HP
	hp.Episodes = 20
	hp.OnlineEpisodes = 5
	s.Advisor.HP = hp
	if err := s.TrainOffline(); err != nil {
		t.Fatal(err)
	}
	plan, sec := s.Explain(s.Bench.Workload.Queries[0])
	if len(plan) == 0 || sec <= 0 {
		t.Fatalf("Explain = %v, %v", plan, sec)
	}
	// Committee requires the online cost.
	if _, err := s.BuildCommittee(nil); err == nil {
		t.Fatalf("nil online cost accepted")
	}
	oc, err := s.TrainOnline(0.3, 20)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.BuildCommittee(oc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Suggest(s.Bench.Workload.UniformFreq()); err != nil {
		t.Fatal(err)
	}
}

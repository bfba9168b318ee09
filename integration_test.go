package bench

import (
	"testing"

	"partadvisor/advisor"
)

// TestIntegrationSSBPipeline drives the full public-API pipeline at repro
// scale: generate SSB, train offline, suggest, deploy, measure, refine
// online, suggest again — asserting end-to-end sanity rather than exact
// numbers. Skipped under -short.
func TestIntegrationSSBPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short mode")
	}
	s, err := advisor.NewSession(advisor.SSB(), advisor.DiskCluster(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.TrainOffline(); err != nil {
		t.Fatal(err)
	}
	st, err := s.Suggest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("suggested design invalid: %v", err)
	}
	base := s.MeasureWorkload(s.Space.InitialState())
	suggested := s.MeasureWorkload(st)
	if suggested > base*1.1 {
		t.Fatalf("offline suggestion clearly worse than the default design: %v vs %v", suggested, base)
	}

	oc, err := s.TrainOnline(0.2, 50)
	if err != nil {
		t.Fatal(err)
	}
	if oc.Stats.QueriesExecuted == 0 {
		t.Fatalf("online phase did not measure anything: %+v", oc.Stats)
	}
	if oc.Stats.NaiveSeconds() < oc.Stats.TotalSeconds() {
		t.Fatalf("optimization accounting inverted: naive %v < actual %v",
			oc.Stats.NaiveSeconds(), oc.Stats.TotalSeconds())
	}
	st2, _, err := s.Advisor.SuggestBest(s.Bench.Workload.UniformFreq(), oc)
	if err != nil {
		t.Fatal(err)
	}
	final := s.MeasureWorkload(st2)
	if final > base*1.1 {
		t.Fatalf("online suggestion clearly worse than the default design: %v vs %v", final, base)
	}

	// The engine's plan for a representative query is inspectable.
	plan, sec := s.Explain(s.Bench.Workload.Queries[3]) // Q2.1: 4-way join
	if len(plan) < 4 || sec <= 0 {
		t.Fatalf("Explain = %v (%v)", plan, sec)
	}
}

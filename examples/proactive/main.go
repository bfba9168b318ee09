// proactive demonstrates the repository's implementation of the paper's §9
// future-work directions on top of the public API: a workload forecaster
// predicts where the mix is heading, the advisor suggests a partitioning
// for the *forecast* mix, a repartition planner decides whether the move
// amortizes over the expected horizon, and a drift detector watches the
// deployed design for staleness.
package main

import (
	"fmt"
	"log"

	"partadvisor/advisor"
)

func main() {
	s, err := advisor.NewSession(advisor.Micro(), advisor.MemoryCluster(), 11)
	if err != nil {
		log.Fatal(err)
	}
	if err := s.TrainOffline(); err != nil {
		log.Fatal(err)
	}

	// The monitoring loop observes a workload drifting from the a⋈b query
	// toward the a⋈c query over several windows.
	fc, err := advisor.NewForecaster(s.Bench.Workload.Size(), 0.5, true)
	if err != nil {
		log.Fatal(err)
	}
	windows := []advisor.FreqVector{
		{1.0, 0.10, 0},
		{1.0, 0.30, 0},
		{0.9, 0.55, 0},
		{0.8, 0.80, 0},
	}
	for _, w := range windows {
		if err := fc.Observe(w); err != nil {
			log.Fatal(err)
		}
	}
	forecast := fc.Forecast(2)
	fmt.Printf("forecast mix (2 windows ahead): %.2f\n", forecast)

	// Ask the advisor for the forecast mix and let the planner judge the
	// move from the currently deployed design.
	current := s.Space.InitialState()
	cost := s.OfflineCost()
	planner := advisor.RepartitionPlanner{Horizon: 500, Margin: 1.2}
	decision, err := planner.Decide(s.Advisor, forecast, current, cost,
		advisor.EstimateMoveCost(s.Engine, current))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("suggested: %s\n", decision.Target)
	fmt.Printf("cost/run: %.4g -> %.4g sim s; move: %.4g sim s; break-even after %.0f runs\n",
		decision.CurrentCost, decision.TargetCost, decision.MoveCost, decision.BreakEven)
	if decision.Apply {
		fmt.Printf("planner: repartition now (deploying took %.4g sim s)\n", s.Deploy(decision.Target))
		current = decision.Target
	} else {
		fmt.Println("planner: keep the current design (move does not amortize)")
	}

	// Watch the deployed design; a sustained cost increase triggers a
	// retraining recommendation.
	drift := &advisor.DriftDetector{Threshold: 0.3, Patience: 3, Alpha: 0.3}
	base := cost(current, forecast)
	series := []float64{base, base * 1.02, base * 0.99, base * 1.5, base * 1.6, base * 1.7}
	for i, c := range series {
		if drift.Observe(c) {
			fmt.Printf("drift detector: retrain after observation %d (cost %.4g vs baseline %.4g)\n",
				i, c, drift.Baseline())
			return
		}
	}
	fmt.Println("drift detector: no retraining needed")
}

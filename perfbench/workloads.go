package main

import "ivdss/internal/core"

// Settings every workload shares; README.md records them with the reasons.
const (
	// dataScale and dataSeed fix the TPC-H catalog: scale 1 is 1,500
	// orders and about 6,000 lineitem rows.
	dataScale = 1
	dataSeed  = 7
	// timeScale is experiment minutes per wall second.
	timeScale = 60
)

// rates are the discount rates per experiment minute. λSL ≪ λCL, so a
// replica plan beats shipping base tables decisively wherever a replica
// exists.
var rates = core.DiscountRates{CL: 0.1, SL: 0.0001}

// templates are the TPC-H templates every workload reads, in seeded rounds.
// Q7 is left out: its answer is empty at this scale, so it checks nothing.
var templates = []string{
	"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q8", "Q9", "Q10", "Q11",
	"Q12", "Q13", "Q14", "Q15", "Q16", "Q17", "Q18", "Q19", "Q20", "Q21", "Q22",
}

// workload is one traffic mix: only what differs between mixes. Why each
// exists is recorded in BENCHMARK.json.
type workload struct {
	Name    string
	RateQPS float64 // open-loop read rate
	LimitMS float64 // latency limit a read must meet to count as goodput
	// ReplicateMS is the sync period of each replicated table.
	ReplicateMS map[string]int
	// Register registers every template with the DSS (KindRegister), so
	// reads can take the router fast path.
	Register bool
	// WriteBatchesPerSec is the rate of insert batches at the write site,
	// each one order and one to four of its lineitems.
	WriteBatchesPerSec float64
}

var workloads = []workload{
	{Name: "remote-scan", RateQPS: 20, LimitMS: 150},
	{Name: "replica-local", RateQPS: 40, LimitMS: 60, ReplicateMS: replicateAll(1000, nil), Register: true},
	{
		Name: "write-mix", RateQPS: 30, LimitMS: 60,
		ReplicateMS: replicateAll(1000, map[string]int{"lineitem": 250, "orders": 250}),
		Register:    true, WriteBatchesPerSec: 5,
	},
}

// replicateAll replicates all eight tables every periodMS milliseconds,
// except where override names another period.
func replicateAll(periodMS int, override map[string]int) map[string]int {
	out := map[string]int{}
	for name := range siteOf {
		out[name] = periodMS
	}
	for name, ms := range override {
		out[name] = ms
	}
	return out
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

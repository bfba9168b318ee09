// Package hardware describes cluster deployments: node count, interconnect
// bandwidth, scan throughput and join processing rate. Profiles feed both
// the offline network-centric cost model and the execution engine's
// simulated-time accounting, and they are the lever behind the paper's
// Exp. 5 (adaptivity to deployments): the same schema and workload lead to
// different optimal partitionings on a 10 Gbps vs a 0.6 Gbps interconnect,
// and on standard vs slower compute nodes.
package hardware

// Profile is one cluster deployment.
type Profile struct {
	// Name identifies the profile in experiment output.
	Name string
	// Nodes is the cluster size (the number of shards of partitioned
	// tables; replicated tables are copied to every node).
	Nodes int
	// NetBytesPerSec is the per-node interconnect bandwidth.
	NetBytesPerSec float64
	// ScanBytesPerSec is the per-node table scan throughput (disk- or
	// memory-bound depending on the engine flavor).
	ScanBytesPerSec float64
	// CPUTuplesPerSec is the per-node join processing rate (hash build +
	// probe tuples per second).
	CPUTuplesPerSec float64
	// QueryOverheadSec is the fixed per-query cost (parsing, optimization,
	// dispatch, result assembly).
	QueryOverheadSec float64
	// RepartitionOverheadSec is the fixed cost of one ALTER TABLE ...
	// DISTRIBUTE BY, on top of the data movement.
	RepartitionOverheadSec float64
}

const gbps = 1e9 / 8 // bytes per second per Gbit/s

// Fixed overheads are calibrated to "repro scale": the materialized
// datasets are ~1000x smaller than the paper's SF=100 deployments, so the
// per-query and per-repartition constants shrink accordingly — otherwise
// they would dominate every measurement and flatten the partitioning
// trade-offs the experiments exist to expose.

// PostgresXLDisk models the paper's Postgres-XL deployment: 4 nodes with a
// 10 Gbps interconnect; scans are disk-bound.
func PostgresXLDisk() Profile {
	return Profile{
		Name:  "pgxl-disk-10gbps",
		Nodes: 4,
		// Effective shuffle throughput, not wire speed: Postgres-XL moves
		// tuples through coordinator-mediated row streams, which saturate
		// far below the 10 Gbps NIC. The in-memory System-X profile, with
		// its optimized transport, keeps full wire speed.
		NetBytesPerSec:         150e6,
		ScanBytesPerSec:        200e6,
		CPUTuplesPerSec:        15e6,
		QueryOverheadSec:       2e-3,
		RepartitionOverheadSec: 2e-2,
	}
}

// SystemXMemory models the paper's commercial in-memory DBMS: scans are
// memory-bound, so network costs dominate distributed joins.
func SystemXMemory() Profile {
	return Profile{
		Name:                   "sysx-mem-10gbps",
		Nodes:                  4,
		NetBytesPerSec:         10 * gbps,
		ScanBytesPerSec:        8e9,
		CPUTuplesPerSec:        60e6,
		QueryOverheadSec:       2e-4,
		RepartitionOverheadSec: 5e-3,
	}
}

// ByName returns the deployment behind an engine name as the commands and
// tenant specs spell it: "disk" (Postgres-XL-like) or "memory" (System-X-like).
func ByName(name string) (Profile, bool) {
	switch name {
	case "disk":
		return PostgresXLDisk(), true
	case "memory":
		return SystemXMemory(), true
	}
	return Profile{}, false
}

// WithSlowNetwork returns the profile with a 0.6 Gbps interconnect — the
// bandwidth of the basic Amazon Redshift deployment used in Exp. 5.
func (p Profile) WithSlowNetwork() Profile {
	p.Name += "+slownet-0.6gbps"
	p.NetBytesPerSec = 0.6 * gbps
	return p
}

// WithSlowCompute returns the profile on less powerful nodes (Exp. 5b):
// scan and join throughput shrink so compute costs dominate and the benefit
// of replication (which trades network for scan/build work) narrows.
func (p Profile) WithSlowCompute() Profile {
	p.Name += "+slowcpu"
	p.ScanBytesPerSec /= 2
	p.CPUTuplesPerSec /= 2
	return p
}

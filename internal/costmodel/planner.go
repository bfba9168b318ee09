package costmodel

import (
	"math"
	"sync"

	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
)

// property slots: the "interesting partitioning" of a planned relation.
// A node's property costs are a dense row of nClass+2 slots — slot
// slotReplicated, slot slotNone, then one per join-attribute equivalence
// class (slot classSlot+c) — where +Inf marks a property the node cannot
// achieve.
const (
	slotReplicated = 0 // full copy on every node
	slotNone       = 1 // partitioned, but not on any join class
	classSlot      = 2
)

// priceWork is the reusable working memory of one price call: the
// property-cost row of every node, and per node the slots of its row that
// hold a cost.
type priceWork struct {
	costs []float64
	slots []int32
	nSlot []int32
}

var workPool = sync.Pool{New: func() any { return new(priceWork) }}

// price costs the query under a design: it fills each leaf with its
// alias's scan cost at the property the design gives it, runs the planned
// joins in dependency order keeping the cheapest cost per output property,
// and sums the cheapest cost of each component.
func (m *Model) price(sk *skeleton, st *partition.State) float64 {
	stride := sk.nClass + classSlot
	s := workPool.Get().(*priceWork)
	n := len(sk.nodes) * stride
	if cap(s.costs) < n {
		s.costs = make([]float64, n)
		s.slots = make([]int32, n)
	}
	if cap(s.nSlot) < len(sk.nodes) {
		s.nSlot = make([]int32, len(sk.nodes))
	}
	costs, slots, nSlot := s.costs[:n], s.slots[:n], s.nSlot[:len(sk.nodes)]
	inf := math.Inf(1)
	for i := range costs {
		costs[i] = inf
	}
	for i := range sk.aliases {
		c, slot := m.scanLeaf(st, &sk.aliases[i])
		costs[i*stride+slot] = c
		slots[i*stride] = int32(slot)
		nSlot[i] = 1
	}
	j := joiner{m: m, n: float64(m.HW.Nodes)}
	for i := len(sk.aliases); i < len(sk.nodes); i++ {
		out := costs[i*stride : (i+1)*stride]
		for _, sp := range sk.splits[sk.nodes[i].splitLo:sk.nodes[i].splitHi] {
			l, r := int(sp.left)*stride, int(sp.right)*stride
			j.join(out,
				costs[l:l+stride], slots[l:l+int(nSlot[sp.left])], &sk.nodes[sp.left],
				costs[r:r+stride], slots[r:r+int(nSlot[sp.right])], &sk.nodes[sp.right],
				&sk.nodes[i], sk.classes[sp.classLo:sp.classHi])
		}
		k := 0
		for slot, c := range out {
			if !math.IsInf(c, 1) {
				slots[i*stride+k] = int32(slot)
				k++
			}
		}
		nSlot[i] = int32(k)
	}
	var total float64
	for _, root := range sk.roots {
		total += minCost(costs[int(root)*stride : (int(root)+1)*stride])
	}
	workPool.Put(s)
	return total + m.HW.QueryOverheadSec
}

func minCost(costs []float64) float64 {
	best := math.Inf(1)
	for _, c := range costs {
		if c < best {
			best = c
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

// scanLeaf returns the scan cost of a base alias under the design and the
// property slot of its output.
func (m *Model) scanLeaf(st *partition.State, a *planAlias) (float64, int) {
	hw := m.HW
	key, partitioned := st.KeyOf(a.table)
	if !partitioned {
		// Every node holds and scans the full table; the scan is not
		// distributed (the crux of the paper's Exp. 5 trade-off).
		return a.baseBytes / hw.ScanBytesPerSec, slotReplicated
	}
	neff := m.parallelism(a.table, key)
	slot := slotNone
	if len(key) == 1 {
		if cl, ok := a.classOf(key[0]); ok {
			slot = classSlot + cl
		}
	}
	return a.baseBytes / hw.ScanBytesPerSec / neff, slot
}

// joiner costs the joins of one price call.
type joiner struct {
	m *Model
	n float64 // nodes
}

// netTime is the cost of moving tuples: wire time plus per-tuple
// (de)serialization CPU — distributed engines rarely shuffle at wire speed.
// Serialization is cheaper than hash-join processing
// (hardware.SerializationSpeedup x).
func (j *joiner) netTime(bytesMoved, rowsMoved float64) float64 {
	hw := &j.m.HW
	n := j.n
	return bytesMoved/(n*hw.NetBytesPerSec) + rowsMoved/(n*hardware.SerializationSpeedup*hw.CPUTuplesPerSec)
}

// cpuTime estimates the per-node hash-join wall time: build + probe +
// output materialization, at the given effective parallelism per side.
func (j *joiner) cpuTime(outRows, buildRows, buildEff, probeRows, probeEff, outEff float64) float64 {
	return (buildRows/buildEff + probeRows/probeEff + outRows/outEff) / j.m.HW.CPUTuplesPerSec
}

// slotEff is the compute parallelism of a side with the given property. The
// paper's cost model is deliberately "simple yet generic" and
// network-centric: compute costs assume full parallelism n regardless of
// how coarse or skewed the join-key distribution is (only replicated
// inputs, processed in full on every node, run at parallelism 1).
// Skew-induced stragglers therefore only surface in the online phase, where
// the engine measures them — one of the inaccuracies that lets online
// refinement improve on offline training (§7.3).
func (j *joiner) slotEff(slot int) float64 {
	if slot == slotReplicated {
		return 1 // every node holds (and would process) the full copy
	}
	return j.n
}

// record keeps the cheaper of a property's cost so far and a new one.
func record(out []float64, slot int, cost float64) {
	if cost < out[slot] {
		out[slot] = cost
	}
}

// join costs the join of two planned relations over every combination of
// their achievable partitioning properties and every distributed strategy,
// folding the cost per output property into out:
//
//   - co-located join (both sides partitioned on the join class, or a side
//     replicated): no network traffic;
//   - repartition one side onto the join class;
//   - symmetric repartitioning of both sides;
//   - broadcast the smaller side.
//
// Keeping the cheapest total cost per achievable output property is the
// "interesting order" bookkeeping that lets downstream joins go co-located.
//
// c1s and c2s are the two sides' property-cost rows, slots1 and slots2 the
// slots of them that hold a cost.
func (j *joiner) join(out []float64, c1s []float64, slots1 []int32, r1 *planNode, c2s []float64, slots2 []int32, r2 *planNode, o *planNode, classes []int32) {
	n := j.n
	bytes1 := r1.rows * r1.width
	bytes2 := r2.rows * r2.width
	for _, s1 := range slots1 {
		p1, c1 := int(s1), c1s[s1]
		for _, s2 := range slots2 {
			p2, c2 := int(s2), c2s[s2]
			base := c1 + c2
			switch {
			case p1 == slotReplicated && p2 == slotReplicated:
				// Fully local; result is replicated too.
				record(out, slotReplicated, base+j.cpuTime(o.rows, math.Min(r1.rows, r2.rows), 1, math.Max(r1.rows, r2.rows), 1, 1))
				continue
			case p1 == slotReplicated:
				// Build the replicated side on every node, probe the
				// partitioned side locally.
				record(out, p2, base+j.cpuTime(o.rows, r1.rows, 1, r2.rows, j.slotEff(p2), j.slotEff(p2)))
			case p2 == slotReplicated:
				record(out, p1, base+j.cpuTime(o.rows, r2.rows, 1, r1.rows, j.slotEff(p1), j.slotEff(p1)))
			default:
				// Both partitioned.
				small, large := r1, r2
				pLarge := p2
				bSmall := bytes1
				if bytes2 < bytes1 {
					small, large = r2, r1
					pLarge = p1
					bSmall = bytes2
				}
				// Broadcast the smaller side.
				record(out, pLarge, base+j.netTime(bSmall*(n-1), small.rows*(n-1))+
					j.cpuTime(o.rows, small.rows, 1, large.rows, j.slotEff(pLarge), j.slotEff(pLarge)))
				for _, cl := range classes {
					c := classSlot + int(cl)
					eff := n
					switch {
					case p1 == c && p2 == c:
						record(out, c, base+j.cpuTime(o.rows, math.Min(r1.rows, r2.rows), eff, math.Max(r1.rows, r2.rows), eff, eff))
					case p1 == c:
						record(out, c, base+j.netTime(bytes2*(n-1)/n, r2.rows*(n-1)/n)+
							j.cpuTime(o.rows, math.Min(r1.rows, r2.rows), eff, math.Max(r1.rows, r2.rows), eff, eff))
					case p2 == c:
						record(out, c, base+j.netTime(bytes1*(n-1)/n, r1.rows*(n-1)/n)+
							j.cpuTime(o.rows, math.Min(r1.rows, r2.rows), eff, math.Max(r1.rows, r2.rows), eff, eff))
					default:
						// Symmetric repartitioning of both sides.
						record(out, c, base+j.netTime((bytes1+bytes2)*(n-1)/n, (r1.rows+r2.rows)*(n-1)/n)+
							j.cpuTime(o.rows, math.Min(r1.rows, r2.rows), eff, math.Max(r1.rows, r2.rows), eff, eff))
					}
				}
			}
		}
	}
}

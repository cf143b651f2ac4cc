// Package topo is the interconnect layer of the simulated machine: the
// mapping from the solver engine's ring ranks onto a physical fabric,
// and the residual-combine pricing whose shape depends on that fabric.
// The engine and the solvers address nodes as a ring (rank r exchanges
// ghost faces with r-1 and r+1 and joins a log₂P residual combine); a
// Topology decides which physical node serves each rank, how far apart
// two physical addresses are, and what the residual combine costs.
//
// Three fabrics ship: Hypercube (the paper's machine — a Gray-code ring
// embedding with e-cube routing), Mesh2D and Torus2D (the lattice
// interconnects of related machines, embedded boustrophedon so ring
// neighbours stay one hop apart). Solver results are topology-invariant
// by construction — data movement is identical, only the simulated
// message pricing changes — which the differential tests assert bit for
// bit.
//
// Every embedding must satisfy two invariants the engine's cost model
// relies on:
//
//   - Ring neighbours are one hop apart: Hops(Addr(r), Addr(r+1)) == 1
//     for every rank of a pristine machine. Recovery may later break
//     this (a shrink deletes a slot), and the engine's exchange
//     accounting absorbs the extra hops explicitly.
//   - Addr is a bijection from ranks onto physical addresses, inverted
//     by RankOf.
//
// TestTopologyProperties pins both, plus the Route/Hops consistency
// contract, for every fabric.
package topo

import "fmt"

// Topology maps the engine's ring onto a physical interconnect.
//
// Two address spaces are in play: ring ranks 0..P-1 (what the engine
// and solvers speak) and physical addresses 0..P-1 (positions in the
// fabric: hypercube corners, grid cells). Addr/RankOf translate between
// them; Hops and Route speak physical addresses; CombineSteps takes a
// live embedding (addrs[r] = the physical address serving rank r) so it
// keeps working after degraded-mode recovery reshapes the ring.
type Topology interface {
	// Name is the fabric's canonical tag: "hypercube", "mesh2d",
	// "torus2d". It keys checkpoint metadata and obs metrics.
	Name() string
	// Shape is the human-readable geometry ("dim 3", "2×4").
	Shape() string
	// P is the physical node count.
	P() int
	// Addr returns the physical address ring rank r embeds onto.
	Addr(rank int) int
	// RankOf inverts Addr, rejecting out-of-range addresses.
	RankOf(addr int) (int, error)
	// Hops returns the shortest-path length between two physical
	// addresses, rejecting out-of-range addresses with an error.
	Hops(from, to int) (int, error)
	// Route returns a deterministic minimal path between two physical
	// addresses, endpoints included: len(Route(a,b))-1 == Hops(a,b) and
	// consecutive entries are always one hop apart.
	Route(from, to int) ([]int, error)
	// CombineSteps returns the engine's residual-combine pricing: one
	// entry per combine round, each the round's critical-path hop count,
	// for a ring living on the given embedding. Empty for one rank.
	CombineSteps(addrs []int) []int
}

// New builds a topology by name over p physical nodes. Accepted names:
// "hypercube" (p must be a power of two), "mesh2d"/"mesh" and
// "torus2d"/"torus" (near-square factorization of p).
func New(name string, p int) (Topology, error) {
	switch name {
	case "hypercube", "":
		dim := 0
		for 1<<uint(dim) < p {
			dim++
		}
		if 1<<uint(dim) != p {
			return nil, fmt.Errorf("topo: hypercube needs a power-of-two node count, got %d", p)
		}
		return NewHypercube(dim)
	case "mesh2d", "mesh":
		rows, cols := nearSquare(p)
		return NewMesh2D(rows, cols)
	case "torus2d", "torus":
		rows, cols := nearSquare(p)
		return NewTorus2D(rows, cols)
	}
	return nil, fmt.Errorf("topo: unknown topology %q (want hypercube, mesh2d or torus2d)", name)
}

// Names lists the canonical topology names New accepts.
func Names() []string { return []string{"hypercube", "mesh2d", "torus2d"} }

// nearSquare factors p into rows×cols with rows the largest divisor not
// exceeding √p, so the grid is as square as the count allows (8 → 2×4,
// 16 → 4×4, 6 → 2×3, primes → 1×p).
func nearSquare(p int) (rows, cols int) {
	if p < 1 {
		return 1, 1
	}
	rows = 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			rows = d
		}
	}
	return rows, p / rows
}

// mustHops prices one combine message. The embeddings handed to
// CombineSteps come from the machine's live ring, whose addresses are
// validated at construction and on every recovery, so an out-of-range
// address here is a caller bug, not an input error.
func mustHops(t Topology, from, to int) int {
	h, err := t.Hops(from, to)
	if err != nil {
		panic(fmt.Sprintf("topo: %s combine over invalid embedding: %v", t.Name(), err))
	}
	return h
}

// floorPow2 returns the largest power of two not exceeding n (n ≥ 1).
func floorPow2(n int) int {
	m := 1
	for m*2 <= n {
		m *= 2
	}
	return m
}

// genericAllReduce prices the rank-space recursive-doubling all-reduce
// over a live embedding by the fabric's hop metric, returning each
// round's critical-path hop count: an optional fold round squashes
// ranks ≥ 2^⌊log₂n⌋ into the power-of-two core, the butterfly pairs
// ranks across each rank-space bit, and an unfold round restores the
// folded ranks. It is the lattice fabrics' CombineSteps.
func genericAllReduce(t Topology, addrs []int) []int {
	n := len(addrs)
	if n <= 1 {
		return nil
	}
	m := floorPow2(n)
	fold := 0
	for r := m; r < n; r++ {
		fold = max(fold, mustHops(t, addrs[r], addrs[r-m]))
	}
	var steps []int
	if n > m {
		steps = append(steps, fold)
	}
	for bit := 1; bit < m; bit <<= 1 {
		worst := 0
		for r := 0; r < m; r++ {
			worst = max(worst, mustHops(t, addrs[r], addrs[r^bit]))
		}
		steps = append(steps, worst)
	}
	if n > m {
		steps = append(steps, fold)
	}
	return steps
}

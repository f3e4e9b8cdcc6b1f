package core

// Grid smoothing at machine scale: the application story of the paper's
// introduction ("nodes are designed to manage parallelism from the
// instruction level to the process level... collaborating threads reside on
// different nodes"). A 1-D grid is block-distributed across nodes; each
// node smooths its own chunk (v[j] = u[j-1] + u[j] + u[j+1]) with purely
// local accesses in the interior and transparent remote accesses for the
// halo elements at chunk boundaries. Scaling the node count shrinks each
// node's chunk while the flat shared address space keeps the program
// unchanged except for its loop bounds. The program generators live in
// internal/workload (MeshSmooth), shared with the large-mesh scaling
// experiment, the engine benchmarks, and examples/bigmesh.

import (
	"fmt"
	"strings"

	"repro/internal/noc"
	"repro/internal/workload"
)

const gridTotal = 512 // grid elements of the small-machine experiment

// GridScaleRow reports one machine size.
type GridScaleRow struct {
	Nodes   int
	Cycles  int64
	Speedup float64
}

// GridSmoothExperiment runs the distributed smoothing pass on 1-, 2- and
// 4-node machines and checks the result against a host-computed reference.
func GridSmoothExperiment() ([]GridScaleRow, error) {
	// The three machine sizes are independent machines: measure them
	// concurrently, then derive the speedup column from the 1-node base.
	sizes := []int{1, 2, 4}
	rows := make([]GridScaleRow, len(sizes))
	err := ForEachMachine(len(sizes), func(i int) error {
		g, err := workload.NewMeshSmooth(sizes[i], gridTotal)
		if err != nil {
			return err
		}
		cycles, err := runMeshSmooth(Options{Nodes: sizes[i]}, g)
		if err != nil {
			return fmt.Errorf("grid smooth on %d nodes: %w", sizes[i], err)
		}
		rows[i] = GridScaleRow{Nodes: sizes[i], Cycles: cycles}
		return nil
	})
	if err != nil {
		return nil, err
	}
	base := rows[0].Cycles
	for i := range rows {
		rows[i].Speedup = float64(base) / float64(rows[i].Cycles)
	}
	return rows, nil
}

// runMeshSmooth boots a machine with the given options, stages the grid,
// runs the smoothing pass, and verifies every output element against the
// host-computed reference. It returns the cycles of the smoothing run.
func runMeshSmooth(o Options, g *workload.MeshSmooth) (int64, error) {
	s, err := NewSim(o)
	if err != nil {
		return 0, err
	}
	if n := s.M.NumNodes(); n != g.Nodes {
		return 0, fmt.Errorf("mesh smooth: %d-node workload on %d-node machine", g.Nodes, n)
	}
	for n := 0; n < g.Nodes; n++ {
		if err := s.LoadASM(n, 3, 3, g.StageSrc(n, s.HomeBase)); err != nil {
			return 0, err
		}
	}
	if _, err := s.Run(5_000_000); err != nil {
		return 0, err
	}
	for n := 0; n < g.Nodes; n++ {
		if err := s.LoadASM(n, 0, 0, g.WorkerSrc(n, s.HomeBase)); err != nil {
			return 0, err
		}
	}
	cycles, err := s.Run(10_000_000)
	if err != nil {
		return 0, err
	}
	for j := 1; j < g.Total()-1; j++ {
		got, err := s.Peek(j/g.Chunk, g.VAddr(s.HomeBase, j))
		if err != nil {
			return 0, fmt.Errorf("v[%d]: %w", j, err)
		}
		if got != g.Want(j) {
			return 0, fmt.Errorf("v[%d] = %d, want %d", j, got, g.Want(j))
		}
	}
	return cycles, nil
}

// FormatGridSmooth renders the scaling table.
func FormatGridSmooth(rows []GridScaleRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "512-element grid smoothing, block-distributed\n")
	fmt.Fprintf(&b, "%-6s %10s %9s\n", "nodes", "cycles", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %10d %8.2fx\n", r.Nodes, r.Cycles, r.Speedup)
	}
	return b.String()
}

// --- E14 (extension): large-mesh scaling ---

// MeshScaleRow reports one large-mesh configuration.
type MeshScaleRow struct {
	Dims    noc.Coord
	Nodes   int
	Cycles  int64
	Speedup float64 // vs the smallest configuration's cycles
}

// MeshScaleExperiment runs the smoothing pass over a fixed 2048-element
// grid on progressively larger 3-D meshes, up to 4x4x2 and 8x8x2, under
// the default event engine. Larger meshes also mean a smaller busy
// fraction per cycle (the fixed grid spreads thinner), which is the mix
// the event engine's idle skipping is for. Simulated cycle counts are
// host-independent; the point of the sweep is that larger meshes finish
// the same grid in fewer simulated cycles.
func MeshScaleExperiment() ([]MeshScaleRow, error) {
	const total = 2048
	dims := []noc.Coord{
		{X: 2, Y: 1, Z: 1},
		{X: 4, Y: 2, Z: 1},
		{X: 4, Y: 4, Z: 2},
		{X: 8, Y: 8, Z: 2},
	}
	rows := make([]MeshScaleRow, len(dims))
	err := ForEachMachine(len(dims), func(i int) error {
		d := dims[i]
		nodes := d.X * d.Y * d.Z
		g, err := workload.NewMeshSmooth(nodes, total)
		if err != nil {
			return err
		}
		cycles, err := runMeshSmooth(Options{Dims: d}, g)
		if err != nil {
			return fmt.Errorf("mesh smooth on %v: %w", d, err)
		}
		rows[i] = MeshScaleRow{Dims: d, Nodes: nodes, Cycles: cycles}
		return nil
	})
	if err != nil {
		return nil, err
	}
	base := rows[0].Cycles
	for i := range rows {
		rows[i].Speedup = float64(base) / float64(rows[i].Cycles)
	}
	return rows, nil
}

// FormatMeshScale renders the large-mesh scaling table.
func FormatMeshScale(rows []MeshScaleRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "2048-element grid smoothing on 3-D meshes\n")
	fmt.Fprintf(&b, "%-8s %6s %10s %9s\n", "mesh", "nodes", "cycles", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%dx%dx%d   %6d %10d %8.2fx\n",
			r.Dims.X, r.Dims.Y, r.Dims.Z, r.Nodes, r.Cycles, r.Speedup)
	}
	return b.String()
}

// Bigmesh: the simulator at machine scale. The paper measures a two-node
// setup; the mesh, GTLB, and runtime support arbitrary 3-D meshes, and the
// event engine skips idle chips so large meshes stay tractable.
//
// This example runs two all-node workloads on 4x4x2 (32-node) and 8x8x2
// (128-node) meshes:
//
//   - a block-distributed grid smoothing pass with remote halo reads
//     (compute-heavy, mostly local), verified element-by-element;
//   - a neighbour message storm — every node streams remote stores into
//     its successor's mailbox through the SEND datapath (network-heavy),
//     verified word-by-word.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/workload"
)

const gridTotal = 2048

func main() {
	for _, dims := range []noc.Coord{{X: 4, Y: 4, Z: 2}, {X: 8, Y: 8, Z: 2}} {
		nodes := dims.X * dims.Y * dims.Z
		fmt.Printf("=== %dx%dx%d mesh (%d nodes) ===\n", dims.X, dims.Y, dims.Z, nodes)
		sc, sw := runSmooth(dims)
		fmt.Printf("  smooth    %8d cycles  %10v wall\n", sc, sw.Round(time.Millisecond))
		mc, mw := runStorm(dims)
		fmt.Printf("  msgstorm  %8d cycles  %10v wall\n", mc, mw.Round(time.Millisecond))
		fmt.Println()
	}
}

// runSmooth runs the verified grid smoothing pass and returns simulated
// cycles of the smoothing phase and host wall time of the whole run.
func runSmooth(dims noc.Coord) (int64, time.Duration) {
	nodes := dims.X * dims.Y * dims.Z
	g, err := workload.NewMeshSmooth(nodes, gridTotal)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	s, err := core.NewSim(core.Options{Dims: dims})
	if err != nil {
		log.Fatal(err)
	}
	defer s.M.Close()
	for n := 0; n < nodes; n++ {
		if err := s.LoadASM(n, 3, 3, g.StageSrc(n, s.HomeBase)); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := s.Run(5_000_000); err != nil {
		log.Fatal(err)
	}
	for n := 0; n < nodes; n++ {
		if err := s.LoadASM(n, 0, 0, g.WorkerSrc(n, s.HomeBase)); err != nil {
			log.Fatal(err)
		}
	}
	cycles, err := s.Run(10_000_000)
	if err != nil {
		log.Fatal(err)
	}
	for j := 1; j < g.Total()-1; j++ {
		got, err := s.Peek(j/g.Chunk, g.VAddr(s.HomeBase, j))
		if err != nil || got != g.Want(j) {
			log.Fatalf("v[%d] = %d (err %v), want %d", j, got, err, g.Want(j))
		}
	}
	return cycles, time.Since(start)
}

// runStorm runs the verified neighbour message storm.
func runStorm(dims noc.Coord) (int64, time.Duration) {
	const msgs = 24
	nodes := dims.X * dims.Y * dims.Z
	start := time.Now()
	s, err := core.NewSim(core.Options{Dims: dims})
	if err != nil {
		log.Fatal(err)
	}
	defer s.M.Close()
	for n := 0; n < nodes; n++ {
		src := workload.NeighborExchangeSrc(n, nodes, msgs, s.RT.DIPRemoteWrite, s.HomeBase)
		if err := s.LoadASM(n, 0, 0, src); err != nil {
			log.Fatal(err)
		}
	}
	cycles, err := s.Run(10_000_000)
	if err != nil {
		log.Fatal(err)
	}
	for n := 0; n < nodes; n++ {
		for w := 0; w < msgs; w++ {
			addr := workload.NeighborExchangeAddr(s.HomeBase, n, w)
			got, err := s.Peek(n, addr)
			if err != nil || got != addr {
				log.Fatalf("mailbox %d.%d = %d (err %v), want %d", n, w, got, err, addr)
			}
		}
	}
	return cycles, time.Since(start)
}

package core

import (
	"path/filepath"
	"testing"

	"repro/internal/isa"
)

// sharedProgSrc loads compile-time generated programs (one *isa.Program
// object per `generate`, shared by every machine the scenario boots) on
// every node of a 2x2 mesh, next to the memoized runtime's handler
// programs that all machines of one configuration share.
const sharedProgSrc = `
workload "shared programs"
mesh 2 2
generate spin spinloop iters=3000
generate st7 stencil points=7 hthreads=2
maplocal node=0 page=0
poke node=0 addr=0x100 float=1.0
poke node=0 addr=0x101 float=2.0
poke node=0 addr=0x102 float=3.0
poke node=0 addr=0x103 float=4.0
poke node=0 addr=0x104 float=5.0
poke node=0 addr=0x105 float=6.0
poke node=0 addr=0x106 float=7.0
poke node=0 addr=0x180 float=10.0
load st7 on node 0
load spin on all vthread=1 cluster=2
load spin on all vthread=2 cluster=3
run 200000
expect fmem node=0 addr=0x180 float=87.0
`

// TestSharedProgramsConcurrent steps two machines at once that share one
// memoized runtime and one compiled scenario's programs, and requires
// each to end with the digest of a serial run. Programs (and their issue
// predecode) are immutable after construction; under -race (make race)
// this pins that nothing writes them while machines run.
func TestSharedProgramsConcurrent(t *testing.T) {
	sc, err := ScenarioFromDSL("shared.wl", sharedProgSrc)
	if err != nil {
		t.Fatal(err)
	}
	stencil, err := ScenarioFromFile(filepath.Join(workloadDir, "stencil7x2.wl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []*Scenario{sc, stencil} {
		t.Run(filepath.Base(sc.Name), func(t *testing.T) {
			ref, _, err := sc.RunSim(Options{})
			if err != nil {
				t.Fatal(err)
			}
			type result struct {
				res *ScenarioResult
				s   *Sim
				err error
			}
			done := make(chan result, 2)
			for i := 0; i < 2; i++ {
				go func() {
					res, s, err := sc.RunSim(Options{})
					done <- result{res, s, err}
				}()
			}
			var sims []*Sim
			for i := 0; i < 2; i++ {
				r := <-done
				if r.err != nil {
					t.Fatal(r.err)
				}
				if r.res.Digest != ref.Digest {
					t.Errorf("concurrent run digest %s, serial run %s", r.res.Digest, ref.Digest)
				}
				sims = append(sims, r.s)
			}
			// The two machines really did run the same program objects.
			a, b := sims[0].M.Chip(0), sims[1].M.Chip(0)
			for _, slot := range [][2]int{{0, 0}, {isa.EventSlot, 2}} {
				pa, pb := a.Thread(slot[0], slot[1]).Prog, b.Thread(slot[0], slot[1]).Prog
				if pa == nil || pa != pb {
					t.Errorf("thread %v: programs %p and %p, want one shared program", slot, pa, pb)
				}
			}
		})
	}
}

package core

// Tests for the workload-DSL execution path: every checked-in .wl
// scenario must compile and pass its own expectations, and the DSL
// re-expressions of the hand-written stencil / loopsync / mesh-smooth
// workloads must produce bit-identical simulated metrics to the
// generator-driven harness code under every engine (the DSL legs of the
// determinism matrix).

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

const workloadDir = "../../testdata/workloads"

// TestScenarioFiles compiles and runs every checked-in scenario.
func TestScenarioFiles(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(workloadDir, "*.wl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 9 {
		t.Fatalf("expected at least 9 checked-in scenarios, found %d", len(files))
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			sc, err := ScenarioFromFile(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sc.Run(Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Phases) == 0 {
				t.Error("scenario ran no phases")
			}
			if res.Checks == 0 {
				t.Error("scenario declared no expectations")
			}
			for _, ph := range res.Phases {
				if ph.Cycles <= 0 {
					t.Errorf("phase %s ran %d cycles", ph.Name, ph.Cycles)
				}
			}
		})
	}
}

// scenarioFingerprint runs a .wl file and renders its simulated metrics.
func scenarioFingerprint(t *testing.T, file string) (string, error) {
	t.Helper()
	sc, err := ScenarioFromFile(filepath.Join(workloadDir, file))
	if err != nil {
		t.Fatal(err) // compile errors are not engine-dependent
	}
	res, err := sc.Run(Options{})
	if err != nil {
		return "", err
	}
	fp := ""
	for _, ph := range res.Phases {
		fp += fmt.Sprintf("%s=%d ", ph.Name, ph.Cycles)
	}
	return fp + fmt.Sprintf("total=%d stats=%+v", res.TotalCycles, res.Stats), nil
}

// TestDSLMatchesHandWritten pins the DSL re-expressions of the three
// hand-written workloads to the generator-driven harness code: identical
// cycle counts and machine statistics under the naive and event
// engines. This extends the determinism matrix to DSL legs —
// the DSL must be a notation, not a different workload.
func TestDSLMatchesHandWritten(t *testing.T) {
	cases := []struct {
		name string
		file string
		hand func() (string, error)
	}{
		{"Stencil7x2", "stencil7x2.wl", handStencil},
		{"LoopSync2", "loopsync2.wl", handLoopSync},
		{"MeshSmooth4", "meshsmooth4.wl", handMeshSmooth},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && c.name == "MeshSmooth4" {
				t.Skip("mesh smooth matrix in -short mode")
			}
			var ref string
			for i, m := range engineModes {
				hand, err := underMode(m, c.hand)
				if err != nil {
					t.Fatalf("hand-written (%s engine): %v", m.name, err)
				}
				dsl, err := underMode(m, func() (string, error) {
					return scenarioFingerprint(t, c.file)
				})
				if err != nil {
					t.Fatalf("DSL (%s engine): %v", m.name, err)
				}
				if dsl != hand {
					t.Fatalf("DSL diverged from hand-written generators (%s engine):\n--- hand ---\n%s\n--- dsl ---\n%s",
						m.name, hand, dsl)
				}
				if i == 0 {
					ref = dsl
				} else if dsl != ref {
					t.Fatalf("DSL diverged between engines (%s vs %s):\n%s\nvs\n%s",
						engineModes[0].name, m.name, ref, dsl)
				}
			}
		})
	}
}

// handStencil replicates the E3 harness leg for the 7-point / 2-H-Thread
// stencil (runStencil's staging), fingerprinting the simulated metrics
// the same way scenarioFingerprint does: one phase, total cycle counter,
// and the machine statistics.
func handStencil() (string, error) {
	st, err := workload.Stencil7(2)
	if err != nil {
		return "", err
	}
	s, err := NewSim(Options{Nodes: 1})
	if err != nil {
		return "", err
	}
	defer s.M.Close()
	s.MapLocal(0, 0, 2, true)
	for i := 0; i < 6; i++ {
		if err := s.Poke(0, st.RBase+uint64(i), math.Float64bits(float64(i+1))); err != nil {
			return "", err
		}
	}
	if err := s.Poke(0, st.RBase+6, math.Float64bits(7)); err != nil {
		return "", err
	}
	if err := s.Poke(0, st.UAddr, math.Float64bits(10)); err != nil {
		return "", err
	}
	for cl, p := range st.Programs {
		s.LoadProgram(0, 0, cl, p, true)
	}
	cycles, err := s.Run(100000)
	if err != nil {
		return "", err
	}
	bits, err := s.Peek(0, st.UAddr)
	if err != nil {
		return "", err
	}
	if math.Float64frombits(bits) != 87 {
		return "", fmt.Errorf("stencil computed %v, want 87", math.Float64frombits(bits))
	}
	return fmt.Sprintf("phase0=%d total=%d stats=%+v", cycles, s.M.Cycle, s.Stats()), nil
}

// handLoopSync replicates the E4 harness leg for 2 H-Threads.
func handLoopSync() (string, error) {
	const iters = 100
	s, err := NewSim(Options{Nodes: 1})
	if err != nil {
		return "", err
	}
	defer s.M.Close()
	progs, err := workload.LoopSync(2, iters)
	if err != nil {
		return "", err
	}
	for cl, p := range progs {
		s.LoadProgram(0, 0, cl, p, true)
	}
	cycles, err := s.Run(int64(iters)*200 + 10000)
	if err != nil {
		return "", err
	}
	for cl := 0; cl < 2; cl++ {
		if got := s.Reg(0, 0, cl, 1); got != iters {
			return "", fmt.Errorf("H-Thread %d ran %d iterations, want %d", cl, got, iters)
		}
	}
	return fmt.Sprintf("phase0=%d total=%d stats=%+v", cycles, s.M.Cycle, s.Stats()), nil
}

// handMeshSmooth replicates runMeshSmooth for 4 nodes / 512 elements,
// keeping both phase cycle counts.
func handMeshSmooth() (string, error) {
	g, err := workload.NewMeshSmooth(4, 512)
	if err != nil {
		return "", err
	}
	s, err := NewSim(Options{Nodes: 4})
	if err != nil {
		return "", err
	}
	defer s.M.Close()
	for n := 0; n < g.Nodes; n++ {
		if err := s.LoadASM(n, 3, 3, g.StageSrc(n, s.HomeBase)); err != nil {
			return "", err
		}
	}
	stageCycles, err := s.Run(5_000_000)
	if err != nil {
		return "", err
	}
	for n := 0; n < g.Nodes; n++ {
		if err := s.LoadASM(n, 0, 0, g.WorkerSrc(n, s.HomeBase)); err != nil {
			return "", err
		}
	}
	cycles, err := s.Run(10_000_000)
	if err != nil {
		return "", err
	}
	for j := 1; j < g.Total()-1; j++ {
		got, err := s.Peek(j/g.Chunk, g.VAddr(s.HomeBase, j))
		if err != nil {
			return "", err
		}
		if got != g.Want(j) {
			return "", fmt.Errorf("v[%d] = %d, want %d", j, got, g.Want(j))
		}
	}
	return fmt.Sprintf("stage=%d smooth=%d total=%d stats=%+v", stageCycles, cycles, s.M.Cycle, s.Stats()), nil
}

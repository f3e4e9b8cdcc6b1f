package dist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/guard"
)

// TestDistBudgetParity pins the cycle-budget clamp on the distributed
// engine to the in-process supervisor's: the same scenario under the same
// `budget` directive must exhaust at the same cycle, or finish with the
// same cycle counts and digest. The budgets cover every branch of the
// clamp on meshsmooth4.wl (2779 cycles): less than one quiet window,
// a bound inside a phase, a cut inside the final quiet window (the run
// still completes), and a budget past completion.
func TestDistBudgetParity(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "workloads", "meshsmooth4.wl")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		budget    int64
		exhausted bool
	}{
		{5, true}, {31, true}, // less than one quiet window
		{33, true}, {100, true}, {1100, true}, {1130, true}, // inside a phase
		{2754, false}, {2769, false}, // cut inside the final quiet window
		{2779, false}, // past completion
	} {
		t.Run(fmt.Sprint(tc.budget), func(t *testing.T) {
			sc, err := core.ScenarioFromDSL(path, fmt.Sprintf("%s\nbudget %d\n", src, tc.budget))
			if err != nil {
				t.Fatal(err)
			}
			ref, refErr := sc.Run(core.Options{})
			got, _, gotErr := RunScenario(sc, core.Options{}, Config{Shards: 2, Launcher: LocalLauncher{}})
			var refStall, gotStall *guard.StallError
			if errors.As(refErr, &refStall) != tc.exhausted {
				t.Fatalf("in-process run: err = %v, want exhausted = %v", refErr, tc.exhausted)
			}
			if tc.exhausted {
				if !errors.As(gotErr, &gotStall) {
					t.Fatalf("distributed run: err = %v, want %v", gotErr, refErr)
				}
				if gotStall.Kind != refStall.Kind || gotStall.Cycle != refStall.Cycle {
					t.Errorf("distributed stall %s at cycle %d, in-process %s at cycle %d",
						gotStall.Kind, gotStall.Cycle, refStall.Kind, refStall.Cycle)
				}
				return
			}
			if gotErr != nil {
				t.Fatalf("distributed run: %v", gotErr)
			}
			if got.TotalCycles != ref.TotalCycles || got.Digest != ref.Digest {
				t.Errorf("distributed run: %d cycles digest %s, in-process %d cycles digest %s",
					got.TotalCycles, got.Digest, ref.TotalCycles, ref.Digest)
			}
			if fmt.Sprint(got.Phases) != fmt.Sprint(ref.Phases) {
				t.Errorf("distributed phases %v, in-process %v", got.Phases, ref.Phases)
			}
		})
	}
}

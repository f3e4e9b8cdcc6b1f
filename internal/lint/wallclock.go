package lint

// wallclock: simulated time is the machine clock; host time and global
// pseudo-randomness must never feed a simulation path (DESIGN.md,
// "Supervised runs & fault injection" draws the boundary: wall time
// belongs to guard/serve/dist supervision only). A single time.Now in
// a stepping function makes runs unreproducible; the global math/rand
// state is nondeterministic across processes.

import (
	"go/ast"
	"go/types"
)

// WallClock reports wall-clock and global-rand use outside the
// supervision allowlist.
var WallClock = &Analyzer{
	Name:      "wallclock",
	Doc:       "no wall clock or global math/rand outside supervision packages",
	Invariant: "simulation paths read only the machine clock and seeded deterministic generators",
	Section:   "Supervised runs & fault injection",
	Run:       runWallClock,
}

// wallClockFuncs are the time package entry points that read or wait on
// the host clock. Pure construction/arithmetic (time.Duration,
// time.Date arithmetic on fixed values) is not flagged.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// randConstructors are the math/rand entry points that build a
// deterministic generator from an explicit seed; everything else at
// package level operates on the shared global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

func runWallClock(m *Module, report Reporter) {
	for _, pkg := range m.Pkgs {
		if pkgIn(pkg.Path, wallClockAllowed) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pn, ok := pkg.Info.Uses[selIdent(sel.X)].(*types.PkgName)
				if !ok {
					return true
				}
				switch pn.Imported().Path() {
				case "time":
					if wallClockFuncs[sel.Sel.Name] {
						report(sel.Pos(), "time.%s reads the host clock on a simulation path", sel.Sel.Name)
					}
				case "math/rand", "math/rand/v2":
					if _, isFunc := pkg.Info.Uses[sel.Sel].(*types.Func); isFunc && !randConstructors[sel.Sel.Name] {
						report(sel.Pos(), "rand.%s uses the process-global random source", sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
}

package lint_test

// Fixture tests in the analysistest style: each testdata/<analyzer>
// package compiles against the real module (CheckDir grafts it onto a
// simulation-critical import path), and every expected finding is a
// `// want` comment on the offending line. Each fixture carries at
// least one true positive and one allowed exception, so both halves of
// every analyzer — the detection and the escape hatch — stay pinned.

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

var (
	modOnce sync.Once
	mod     *lint.Module
	modErr  error
)

// module loads the repo once per test binary; the extra patterns force
// `go list -export` to materialize export data for the stdlib packages
// the fixtures import but the module itself may not.
func module(t *testing.T) *lint.Module {
	t.Helper()
	modOnce.Do(func() {
		mod, modErr = lint.Load("../..", "./...", "errors", "math/rand", "sort", "sync", "time")
	})
	if modErr != nil {
		t.Fatalf("loading module: %v", modErr)
	}
	return mod
}

var wantRe = regexp.MustCompile("// want `([^`]+)`")

type wantEntry struct {
	file string // base name
	line int
	re   *regexp.Regexp
	hit  bool
}

// collectWants scans the fixture sources for `// want` comments.
func collectWants(t *testing.T, dir string) []*wantEntry {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*wantEntry
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern: %v", e.Name(), i+1, err)
			}
			wants = append(wants, &wantEntry{file: e.Name(), line: i + 1, re: re})
		}
	}
	return wants
}

// runFixture analyzes testdata/<name> as import path asPath and checks
// the diagnostics against the fixture's want comments, both ways: every
// finding must be wanted and every want must be found.
func runFixture(t *testing.T, name, asPath string, as ...*lint.Analyzer) *lint.Result {
	t.Helper()
	m := module(t)
	dir := filepath.Join("testdata", name)
	fm, err := m.CheckDir(dir, asPath)
	if err != nil {
		t.Fatalf("checking fixture: %v", err)
	}
	res := lint.RunAnalyzers(fm, as)
	wants := collectWants(t, dir)
	for _, d := range res.Diags {
		matched := false
		for _, w := range wants {
			if w.file == filepath.Base(d.Pos.Filename) && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: want %q, got no matching diagnostic", w.file, w.line, w.re)
		}
	}
	return res
}

// assertSuppressed verifies the fixture's escape hatch fired: at least
// one finding was silenced by a reasoned directive, and no directive
// went unused.
func assertSuppressed(t *testing.T, res *lint.Result) {
	t.Helper()
	if len(res.Suppressed) == 0 {
		t.Error("fixture has an //mlint:allow directive but no finding was suppressed")
	}
	for _, s := range res.Suppressions {
		if !s.Used {
			t.Errorf("%s: directive for %q unused", s.Pos, s.Analyzer)
		}
	}
}

func TestDetRangeFixture(t *testing.T) {
	res := runFixture(t, "detrange", "repro/internal/chip/dtfix", lint.DetRange)
	assertSuppressed(t, res)
}

func TestWallClockFixture(t *testing.T) {
	res := runFixture(t, "wallclock", "repro/internal/chip/wcfix", lint.WallClock)
	assertSuppressed(t, res)
}

// TestWallClockAllowedPath re-checks the same fixture at a supervision
// import path: every finding must vanish.
func TestWallClockAllowedPath(t *testing.T) {
	m := module(t)
	fm, err := m.CheckDir(filepath.Join("testdata", "wallclock"), "repro/internal/guard/wcfix")
	if err != nil {
		t.Fatalf("checking fixture: %v", err)
	}
	res := lint.RunAnalyzers(fm, []*lint.Analyzer{lint.WallClock})
	for _, d := range res.Diags {
		t.Errorf("wallclock fired on an allowlisted supervision path: %s", d)
	}
}

func TestGoCheckFixture(t *testing.T) {
	res := runFixture(t, "gocheck", "repro/internal/chip/gofix", lint.GoCheck)
	assertSuppressed(t, res)
}

func TestSnapFieldsFixture(t *testing.T) {
	res := runFixture(t, "snapfields", "repro/internal/chip/sfix", lint.SnapFields)
	if len(res.Derived) != 1 || res.Derived[0].Field != "cache" {
		t.Errorf("derived tags = %v, want exactly State.cache", res.Derived)
	}
}

func TestShadowFixture(t *testing.T) {
	runFixture(t, "shadow", "repro/internal/chip/shfix", lint.Shadow)
}

func TestNilnessFixture(t *testing.T) {
	runFixture(t, "nilness", "repro/internal/chip/nilfix", lint.Nilness)
}

// TestDirectiveFixture pins the audit-trail rules: a directive without
// a reason, or naming an unknown analyzer, is itself a diagnostic and
// silences nothing.
func TestDirectiveFixture(t *testing.T) {
	m := module(t)
	fm, err := m.CheckDir(filepath.Join("testdata", "directive"), "repro/internal/chip/dirfix")
	if err != nil {
		t.Fatalf("checking fixture: %v", err)
	}
	res := lint.RunAnalyzers(fm, []*lint.Analyzer{lint.DetRange})
	var mlintMsgs []string
	ranges := 0
	for _, d := range res.Diags {
		switch d.Analyzer {
		case "mlint":
			mlintMsgs = append(mlintMsgs, d.Message)
		case "detrange":
			ranges++
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if ranges != 2 {
		t.Errorf("got %d detrange findings, want 2 (malformed directives must not suppress)", ranges)
	}
	if len(mlintMsgs) != 2 {
		t.Fatalf("got %d mlint directive diagnostics, want 2: %q", len(mlintMsgs), mlintMsgs)
	}
	if !strings.Contains(mlintMsgs[0], "requires a reason") {
		t.Errorf("missing-reason directive: got %q", mlintMsgs[0])
	}
	if !strings.Contains(mlintMsgs[1], "unknown analyzer") {
		t.Errorf("unknown-analyzer directive: got %q", mlintMsgs[1])
	}
	if len(res.Suppressed) != 0 {
		t.Errorf("malformed directives suppressed %d findings", len(res.Suppressed))
	}
}

// TestModuleClean is the CI gate in miniature: the full suite over the
// full module must report zero unsuppressed diagnostics, and every
// suppression must be load-bearing.
func TestModuleClean(t *testing.T) {
	m := module(t)
	res := lint.RunAnalyzers(m, lint.Analyzers())
	for _, d := range res.Diags {
		t.Errorf("unsuppressed: %s", d)
	}
	for _, s := range res.Suppressions {
		if !s.Used {
			t.Errorf("%s: //mlint:allow %s is unused — remove it", s.Pos, s.Analyzer)
		}
	}
}

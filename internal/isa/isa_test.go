package isa

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestUnitOf(t *testing.T) {
	cases := []struct {
		op   Opcode
		unit Unit
	}{
		{ADD, UnitInt}, {MOV, UnitInt}, {BR, UnitInt}, {HALT, UnitInt},
		{JMPR, UnitInt}, {EMPTY, UnitInt},
		{LD, UnitMem}, {ST, UnitMem}, {SEND, UnitMem}, {LEA, UnitMem},
		{TLBW, UnitMem}, {MRETRY, UnitMem}, {RSTW, UnitMem}, {DIRCNT, UnitMem},
		{FADD, UnitFP}, {FDIV, UnitFP}, {ITOF, UnitFP}, {FTOI, UnitFP},
	}
	for _, c := range cases {
		if got := c.op.UnitOf(); got != c.unit {
			t.Errorf("%s.UnitOf() = %v, want %v", c.op, got, c.unit)
		}
	}
}

func TestIsPrivileged(t *testing.T) {
	priv := []Opcode{LDP, STP, SETPTR, SENDN, TLBW, TLBINV, BSW, BSR, MRETRY, RSTW, DIRLOG, DIRCNT}
	for _, op := range priv {
		if !op.IsPrivileged() {
			t.Errorf("%s should be privileged", op)
		}
	}
	unpriv := []Opcode{ADD, LD, ST, LDSY, STSY, SEND, LEA, GPROBE, BR, HALT, FADD}
	for _, op := range unpriv {
		if op.IsPrivileged() {
			t.Errorf("%s should not be privileged", op)
		}
	}
}

func TestIsBranch(t *testing.T) {
	for _, op := range []Opcode{BR, BRT, BRF, JMPR} {
		if !op.IsBranch() {
			t.Errorf("%s should be a branch", op)
		}
	}
	for _, op := range []Opcode{ADD, LD, HALT, SEND} {
		if op.IsBranch() {
			t.Errorf("%s should not be a branch", op)
		}
	}
}

func TestRegConstructors(t *testing.T) {
	if r := Int(5); r.Class != RInt || r.Index != 5 || r.Cluster != ClusterSelf {
		t.Errorf("Int(5) = %+v", r)
	}
	if r := FP(3); r.Class != RFP || r.Index != 3 {
		t.Errorf("FP(3) = %+v", r)
	}
	if r := GCC(1); r.Class != RGCC {
		t.Errorf("GCC(1) = %+v", r)
	}
	if r := Remote(2, Int(7)); r.Cluster != 2 || r.Index != 7 {
		t.Errorf("Remote = %+v", r)
	}
	if !(Reg{}).IsZero() || Int(0).IsZero() {
		t.Error("IsZero misclassifies")
	}
}

func TestRegString(t *testing.T) {
	cases := map[string]Reg{
		"i3":    Int(3),
		"f12":   FP(12),
		"gcc7":  GCC(7),
		"net":   Spec(SpecNet),
		"evq":   Spec(SpecEvq),
		"node":  Spec(SpecNode),
		"thr":   Spec(SpecThr),
		"cyc":   Spec(SpecCyc),
		"@2.i5": Remote(2, Int(5)),
		"@0.f1": Remote(0, FP(1)),
		"-":     {},
	}
	for want, r := range cases {
		if got := r.String(); got != want {
			t.Errorf("%+v.String() = %q, want %q", r, got, want)
		}
	}
}

func TestRegDescRoundTrip(t *testing.T) {
	f := func(vt, cl uint8, class uint8, idx uint8) bool {
		vthread := int(vt % NumVThreads)
		cluster := int(cl % NumClusters)
		r := Reg{Class: RegClass(class%4 + 1), Index: idx, Cluster: ClusterSelf}
		gotVT, gotCL, gotR := UnpackRegDesc(RegDesc(vthread, cluster, r))
		return gotVT == vthread && gotCL == cluster && gotR == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInstWidthAndOps(t *testing.T) {
	in := Inst{IOp: &Op{Code: ADD}, FOp: &Op{Code: FADD}}
	if in.Width() != 2 {
		t.Errorf("Width = %d, want 2", in.Width())
	}
	ops := in.Ops()
	if len(ops) != 2 || ops[0].Code != ADD || ops[1].Code != FADD {
		t.Errorf("Ops = %v", ops)
	}
	empty := Inst{}
	if empty.Width() != 0 || empty.String() != "nop" {
		t.Errorf("empty inst: width=%d str=%q", empty.Width(), empty.String())
	}
}

func TestOpString(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{Op{Code: ADD, Dst: Int(1), Src1: Int(2), Src2: Int(3)}, "add i1, i2, i3"},
		{Op{Code: ADD, Dst: Int(1), Src1: Int(2), Imm: 5, HasImm: true}, "add i1, i2, #5"},
		{Op{Code: LD, Dst: Int(1), Src1: Int(2), Imm: 3}, "ld i1, [i2+3]"},
		{Op{Code: ST, Src1: Int(2), Src2: Int(4), Imm: -1}, "st [i2-1], i4"},
		{Op{Code: MOVI, Dst: Int(1), Imm: 42, HasImm: true}, "movi i1, #42"},
		{Op{Code: BR, Imm: 7, HasImm: true}, "br #7"},
		{Op{Code: BRT, Src1: GCC(1), Label: "loop"}, "brt gcc1, loop"},
		{Op{Code: LDSY, Dst: Int(1), Src1: Int(2), Pre: SyncFull, Post: SyncEmpty}, "ldsy.fe i1, [i2]"},
		{Op{Code: SEND, Src1: Int(1), Src2: Int(2), Dst: Int(8), Imm: 3, HasImm: true}, "send i1, i2, i8, #3"},
		{Op{Code: HALT}, "halt"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestSyncCondString(t *testing.T) {
	if SyncAny.String() != "a" || SyncFull.String() != "f" || SyncEmpty.String() != "e" {
		t.Error("SyncCond strings wrong")
	}
}

func TestOpcodeStringsUnique(t *testing.T) {
	seen := map[string]Opcode{}
	for op := Opcode(0); op < opcodeCount; op++ {
		s := op.String()
		if prev, dup := seen[s]; dup {
			t.Errorf("opcodes %d and %d share name %q", prev, op, s)
		}
		seen[s] = op
	}
}

func TestProgramString(t *testing.T) {
	p := &Program{
		Insts: []Inst{
			{IOp: &Op{Code: MOVI, Dst: Int(1), Imm: 1, HasImm: true}},
			{IOp: &Op{Code: HALT}},
		},
		Labels: map[string]int{"start": 0},
	}
	s := p.String()
	if s == "" || p.Len() != 2 || p.Depth() != 2 {
		t.Errorf("Program: len=%d str=%q", p.Len(), s)
	}
}

func TestWordHelper(t *testing.T) {
	w := W(42)
	if w.Bits != 42 || w.Ptr {
		t.Errorf("W(42) = %+v", w)
	}
}

func TestIntALUFallbackClassification(t *testing.T) {
	// Every plain integer op must be schedulable on the memory unit's ALU.
	for _, op := range []Opcode{ADD, SUB, MUL, AND, OR, XOR, SHL, EQ, MOV, MOVI, BR, HALT, NOP} {
		if !op.IsIntALU() {
			t.Errorf("%s should be an int-ALU op", op)
		}
	}
	for _, op := range []Opcode{LD, FADD, SEND} {
		if op.IsIntALU() {
			t.Errorf("%s should not be an int-ALU op", op)
		}
	}
}

// TestPredecode pins the issue-stage predecode: the op array, and which
// instructions are plain (readiness = their register masks all full) with
// which masks. Every category the op-by-op walk treats specially must be
// non-plain.
func TestPredecode(t *testing.T) {
	add := &Op{Code: ADD, Dst: Int(3), Src1: Int(1), Src2: Int(2)}
	fmul := &Op{Code: FMUL, Dst: FP(4), Src1: FP(5), Src2: FP(5)}
	itof := &Op{Code: ITOF, Dst: FP(1), Src1: Int(9)}
	brt := &Op{Code: BRT, Src1: Int(5), Imm: 0}
	cases := []struct {
		name      string
		in        Inst
		plain     bool
		ints, fps uint16
	}{
		{"alu+fp", Inst{IOp: add, FOp: fmul}, true, 1<<1 | 1<<2 | 1<<3, 1<<4 | 1<<5},
		{"int-to-fp", Inst{MOp: itof}, true, 1 << 9, 1 << 1},
		{"branch", Inst{IOp: brt}, true, 1 << 5, 0},
		{"halt", Inst{IOp: &Op{Code: HALT}}, true, 0, 0},
		{"empty instruction", Inst{}, true, 0, 0},
		{"load", Inst{IOp: add, MOp: &Op{Code: LD, Dst: Int(4), Src1: Int(1)}}, false, 0, 0},
		{"store", Inst{MOp: &Op{Code: ST, Src1: Int(1), Src2: Int(2)}}, false, 0, 0},
		{"send", Inst{MOp: &Op{Code: SEND, Dst: Int(3), Src1: Int(1), Src2: Int(2), Imm: 1}}, false, 0, 0},
		{"tlbw", Inst{MOp: &Op{Code: TLBW, Src1: Int(4)}}, false, 0, 0},
		{"mretry", Inst{MOp: &Op{Code: MRETRY, Src1: Int(4)}}, false, 0, 0},
		{"empty op", Inst{IOp: &Op{Code: EMPTY, Dst: Int(2)}}, false, 0, 0},
		{"gcc source", Inst{IOp: &Op{Code: BRT, Src1: GCC(1)}}, false, 0, 0},
		{"gcc destination", Inst{IOp: &Op{Code: EQ, Dst: GCC(1), Src1: Int(1), Src2: Int(2)}}, false, 0, 0},
		{"net source", Inst{IOp: &Op{Code: MOV, Dst: Int(1), Src1: Spec(SpecNet)}}, false, 0, 0},
		{"cross-cluster destination", Inst{IOp: &Op{Code: MOV, Dst: Remote(2, Int(1)), Src1: Int(3)}}, false, 0, 0},
		{"own-cluster explicit destination", Inst{IOp: &Op{Code: MOV, Dst: Remote(0, Int(1)), Src1: Int(3)}}, false, 0, 0},
	}
	for _, c := range cases {
		p := NewProgram(c.name, []Inst{c.in}, nil)
		d := p.Insts[0].Decoded()
		if d.Plain != c.plain || d.IntMask != c.ints || d.FPMask != c.fps {
			t.Errorf("%s: plain=%v ints=%#x fps=%#x, want plain=%v ints=%#x fps=%#x",
				c.name, d.Plain, d.IntMask, d.FPMask, c.plain, c.ints, c.fps)
		}
		if want := c.in.Ops(); int(d.N) != len(want) {
			t.Errorf("%s: %d predecoded ops, want %d", c.name, d.N, len(want))
		} else {
			for i := range want {
				if d.Ops[i] != want[i] {
					t.Errorf("%s: op %d is not the instruction's own op", c.name, i)
				}
			}
		}
	}
	if (&Program{}).Predecoded() || !NewProgram("p", nil, nil).Predecoded() {
		t.Error("Predecoded must report exactly the NewProgram-built programs")
	}
}

// TestInstLayout pins the instruction at one 64-byte cache line on 64-bit
// hosts, with the predecode leading (the issue stage reads it first).
func TestInstLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(Inst{}) != 64 {
		t.Errorf("Inst is %d bytes, want 64", unsafe.Sizeof(Inst{}))
	}
	if unsafe.Offsetof(Inst{}.dec) != 0 {
		t.Errorf("predecode at offset %d, want 0", unsafe.Offsetof(Inst{}.dec))
	}
}

package isa

import "testing"

func TestClassPredicates(t *testing.T) {
	if !Load.IsMemory() || !Store.IsMemory() {
		t.Error("loads/stores are memory")
	}
	for _, c := range []Class{IntALU, IntMulDiv, FPALU, FPMulDiv, Branch} {
		if c.IsMemory() {
			t.Errorf("%v should not be memory", c)
		}
	}
}

func TestClassStrings(t *testing.T) {
	names := map[Class]string{
		IntALU: "IntALU", IntMulDiv: "IntMulDiv", FPALU: "FPALU",
		FPMulDiv: "FPMulDiv", Load: "Load", Store: "Store", Branch: "Branch",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
	if Class(200).String() != "Unknown" {
		t.Error("out-of-range class should stringify as Unknown")
	}
}

func TestSliceStream(t *testing.T) {
	insts := []Inst{
		{Class: IntALU}, {Class: Load, Addr: 64}, {Class: Branch, Taken: true},
	}
	ss := &SliceStream{Insts: insts}
	got := ss.Rest()
	if len(got) != 3 || &got[0] != &insts[0] {
		t.Fatalf("Rest = %d insts, want the 3 of the slice itself", len(got))
	}
	if got[1].Addr != 64 || !got[2].Taken {
		t.Error("stream corrupted instructions")
	}
	if rest := ss.Rest(); len(rest) != 0 {
		t.Errorf("read stream's Rest = %d insts, want 0", len(rest))
	}
	ss.Reset()
	if rest := ss.Rest(); len(rest) != 3 || rest[0].Class != IntALU {
		t.Error("Reset should rewind")
	}
}

func TestCollect(t *testing.T) {
	insts := make([]Inst, 10)
	for i := range insts {
		insts[i].BrID = uint32(i)
	}
	ss := &SliceStream{Insts: insts}
	some := Collect(ss, 4)
	if len(some) != 4 || some[3].BrID != 3 {
		t.Fatalf("Collect(4) wrong: %v", some)
	}
	if cap(some) != 4 {
		t.Errorf("Collect(4) cap = %d, want 4 (exact size)", cap(some))
	}
	some[0].BrID = 99
	if insts[0].BrID != 0 {
		t.Error("Collect should copy, not alias, the trace")
	}
	// Collect marks what it copies read: Rest resumes after it.
	if rest := ss.Rest(); len(rest) != 6 || rest[0].BrID != 4 {
		t.Fatalf("Rest after Collect(4) = %d insts from %v", len(rest), rest)
	}
	ss.Reset()
	if all := Collect(ss, 0); len(all) != 10 || all[9].BrID != 9 {
		t.Fatalf("Collect(0) after Reset = %d insts", len(all))
	}
	// A max past the stream's end still returns just the unread rest.
	ss.Reset()
	if short := Collect(ss, 16); len(short) != 10 || short[9].BrID != 9 {
		t.Fatalf("Collect(16) over 10 insts wrong: %v", short)
	}
	if rest := ss.Rest(); len(rest) != 0 {
		t.Errorf("Rest after a full Collect = %d insts, want 0", len(rest))
	}
}

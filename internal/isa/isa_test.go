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
	var got []Inst
	var in Inst
	for ss.Next(&in) {
		got = append(got, in)
	}
	if len(got) != 3 {
		t.Fatalf("drained %d insts", len(got))
	}
	if got[1].Addr != 64 || !got[2].Taken {
		t.Error("stream corrupted instructions")
	}
	if ss.Next(&in) {
		t.Error("exhausted stream should return false")
	}
	ss.Reset()
	if !ss.Next(&in) || in.Class != IntALU {
		t.Error("Reset should rewind")
	}
}

func TestCollect(t *testing.T) {
	insts := make([]Inst, 10)
	for i := range insts {
		insts[i].BrID = uint32(i)
	}
	all := Collect(&SliceStream{Insts: insts}, 0)
	if len(all) != 10 {
		t.Fatalf("Collect(0) = %d insts", len(all))
	}
	some := Collect(&SliceStream{Insts: insts}, 4)
	if len(some) != 4 || some[3].BrID != 3 {
		t.Fatalf("Collect(4) wrong: %v", some)
	}
	if cap(some) != 4 {
		t.Errorf("Collect(4) cap = %d, want 4 (presized)", cap(some))
	}
	// A max past the stream's end still returns just the stream.
	if short := Collect(&SliceStream{Insts: insts}, 16); len(short) != 10 || short[9].BrID != 9 {
		t.Fatalf("Collect(16) over 10 insts wrong: %v", short)
	}
}

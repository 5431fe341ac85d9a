package genetic

import (
	"testing"

	"hsmodel/internal/regress"
	"hsmodel/internal/rng"
)

// TestSpecKeyCanonicalizesInteractions: the fitness-cache key must be
// invariant under interaction order and I/J swaps, or equivalent chromosomes
// would be fitted twice.
func TestSpecKeyCanonicalizesInteractions(t *testing.T) {
	base := regress.Spec{
		Codes: []regress.TransformCode{regress.Linear, 0, regress.Spline3, regress.Cubic},
		Interactions: []regress.Interaction{
			{I: 0, J: 2}, {I: 3, J: 1}, {I: 2, J: 3},
		},
	}
	perm := regress.Spec{
		Codes: base.Codes,
		Interactions: []regress.Interaction{
			{I: 3, J: 2}, {I: 2, J: 0}, {I: 1, J: 3},
		},
	}
	if specKey(base) != specKey(perm) {
		t.Errorf("permuted interactions changed the key:\n%q\n%q", specKey(base), specKey(perm))
	}
}

func TestSpecKeyDistinguishesSpecs(t *testing.T) {
	src := rng.New(3)
	seen := map[string]regress.Spec{}
	for k := 0; k < 200; k++ {
		spec := randomSpec(6, src)
		key := specKey(spec)
		if prev, ok := seen[key]; ok {
			// A collision is only legal if the canonicalized specs are equal.
			if specKey(prev) != specKey(spec) {
				t.Fatalf("key %q collides for %v and %v", key, prev, spec)
			}
			continue
		}
		seen[key] = spec.Clone()
	}
	// Codes must be position-sensitive: 1,2 vs 2,1.
	a := regress.Spec{Codes: []regress.TransformCode{regress.Linear, regress.Quadratic}}
	b := regress.Spec{Codes: []regress.TransformCode{regress.Quadratic, regress.Linear}}
	if specKey(a) == specKey(b) {
		t.Error("transposed codes produced the same key")
	}
}

// TestSpecKeyManyInteractions exercises the heap-spill path past the stack
// scratch array.
func TestSpecKeyManyInteractions(t *testing.T) {
	var ins, rev []regress.Interaction
	for i := 0; i < 30; i++ {
		ins = append(ins, regress.Interaction{I: 30 - i, J: 31 - i})
	}
	for i := len(ins) - 1; i >= 0; i-- {
		rev = append(rev, regress.Interaction{I: ins[i].J, J: ins[i].I})
	}
	codes := make([]regress.TransformCode, 32)
	a := regress.Spec{Codes: codes, Interactions: ins}
	b := regress.Spec{Codes: codes, Interactions: rev}
	if specKey(a) != specKey(b) {
		t.Error("spilled interaction sort is not canonical")
	}
}

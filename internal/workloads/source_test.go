package workloads

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// sourceDigests pins the SHA-256 of every generated guest source, per
// scale and workload. Initializer rendering is an implementation detail
// of the generators; the guest programs, and so every golden trace,
// outcome digest and benchmark expectation built on them, must not move
// when it changes.
var sourceDigests = map[Scale]map[string]string{
	ScaleTest: {
		"dct":      "fde226ef06f44eba98e258769ac666b77afda2f2f328f9b1ef4f08f4296abd21",
		"jacobi":   "65eea0ab12f3e7ca7bc919cd24481b8ec113d3ce3a9f656605565d949c05a2be",
		"pi":       "f0c034f35c6c74b26a40910bfdd9ad65fe1f7f454ba5d0359a789c52f4106218",
		"knapsack": "0c637b19fba11b9ee51cf350163aca8aac4c3621e7f91c73901e390824f169a7",
		"deblock":  "7fd1e0f484d1c9c3f75042fb8c7c0e696ee34a0c4a4d293b87b615f265b7abec",
		"canneal":  "c83407e2a0c12862235ac3d3b0b4bfb9716df5e2fc233160e79e1eeb4edcca51",
	},
	ScaleSmall: {
		"dct":      "a13548014cdaf2fcf2c742a96b9dfd23a98a6acbf96d8c0263956456a7b6fec1",
		"jacobi":   "ccacb7a45c29aae0a5a72f148b711618c23eec596d9f50389900fa0bb9dc689f",
		"pi":       "1e38f3bc41fff9139dc38857039ea86538cafca0950580f7735f8220e95bcf3f",
		"knapsack": "5483a452285e20efa024af3151a86128baf66982719de022f6fa55b25cafef97",
		"deblock":  "ce715b536961682c1b93e09a2cc35e87977a549b5a38352603a437820172eb02",
		"canneal":  "ec87ab7d77a96091c409416ee6facc3557470055ecd8d0e052c133961b009106",
	},
	ScalePaper: {
		"dct":      "8dfc8038336e0f2cce27626558015f6875ff03065e7d896909efa1e9fded39cc",
		"jacobi":   "f90abbea7df688535fe02c7d2ffe8e368dc2f765da561fe7095e9a029682a8ae",
		"pi":       "ce03dc659b3c5d361803d2c4b2f2d3241c64bb10ac31b3d0db4cf537abc22a84",
		"knapsack": "626f10d3ddb458974d97c571d0805dd12e6673145b9f35374cd98219a348b871",
		"deblock":  "2fe612376ca52c8c321d5f4737dc5492b2a94eda9bd996dede93bdeb92cd3f6b",
		"canneal":  "fbfb0c087908b60b57a375de2c6666e1f1811a08eba00c2d7e88e139a47e63fa",
	},
}

// TestSourceDigests requires every workload × scale source to hash to
// its pinned digest.
func TestSourceDigests(t *testing.T) {
	for scale, want := range sourceDigests {
		ws := All(scale)
		if len(ws) != len(want) {
			t.Errorf("scale %d: %d workloads, %d pinned", scale, len(ws), len(want))
		}
		for _, w := range ws {
			got := fmt.Sprintf("%x", sha256.Sum256([]byte(w.Source)))
			if got != want[w.Name] {
				t.Errorf("scale %d %s: source digest %s, pinned %s", scale, w.Name, got, want[w.Name])
			}
		}
	}
}

// TestArrayInitializers pins the initializer text itself, including the
// empty and single-element forms and floats on both formatting paths.
func TestArrayInitializers(t *testing.T) {
	if got := intArray([]int64{-3, 0, 42}); got != "{-3, 0, 42}" {
		t.Errorf("intArray = %q", got)
	}
	if got := intArray(nil); got != "{}" {
		t.Errorf("intArray(nil) = %q", got)
	}
	if got := floatArray([]float64{2, -0.5, 1.0 / 3}); got != "{2.0, -0.5, 0.33333333333333331}" {
		t.Errorf("floatArray = %q", got)
	}
	if got := floatArray([]float64{7}); got != "{7.0}" {
		t.Errorf("floatArray single = %q", got)
	}
}

package stats

import "testing"

func TestMarkedSetExactCount(t *testing.T) {
	r := NewRNG(43)
	for _, tc := range []struct{ population, marked int }{
		{100, 0}, {100, 37}, {100, 100}, {1, 1},
	} {
		set := r.MarkedSet(tc.population, tc.marked)
		if len(set) != tc.population {
			t.Fatalf("len = %d, want %d", len(set), tc.population)
		}
		count := 0
		for _, m := range set {
			if m {
				count++
			}
		}
		if count != tc.marked {
			t.Errorf("population=%d marked=%d: counted %d", tc.population, tc.marked, count)
		}
	}
}

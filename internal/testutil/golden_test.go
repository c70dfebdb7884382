package testutil

import "testing"

// TestKeeps: an added column, key, row or token is additive; a dropped or
// changed value is not, in each of the three formats.
func TestKeeps(t *testing.T) {
	cases := []struct {
		name, prev, next string
		additive         bool
	}{
		{"a.csv", "x,y\n1,2\n", "x,z,y\n1,9,2\n", true},
		{"a.csv", "x,y\n1,2\n", "x,z\n1,2\n", false},
		{"a.csv", "x,y\n1,2\n", "x,y\n1,3\n", false},
		{"a.csv", "x,y\n1,2\n3,4\n", "x,y\n3,4\n1,2\n", false},
		{"a.json", `{"a":[{"b":1}]}`, `{"s":2,"a":[{"b":1,"c":0}]}`, true},
		{"a.json", `{"a":[{"b":1}]}`, `{"a":[{"b":2}]}`, false},
		{"a.json", `{"a":[{"b":1}]}`, `{"a":[]}`, false},
		{"a.txt", "k=1 n=2\nend\n", "k=1 p=0 n=2\nend\n", true},
		{"a.txt", "k=1 n=2\n", "k=1 n=3\n", false},
		{"a.txt", "k=1\nend\n", "end\nk=1\n", false},
	}
	for _, tc := range cases {
		if err := keeps(tc.name, []byte(tc.prev), []byte(tc.next)); (err == nil) != tc.additive {
			t.Errorf("keeps(%s, %q, %q) = %v, want additive=%v", tc.name, tc.prev, tc.next, err, tc.additive)
		}
	}
}

package main

import "testing"

func TestCheckWindow(t *testing.T) {
	cases := []struct {
		name                            string
		restoredAt, snapshotAt, horizon float64
		ok                              bool
	}{
		{"plain run", 0, 0, 600, true},
		{"snapshot inside", 0, 300, 600, true},
		{"snapshot at horizon", 0, 600, 600, true},
		{"snapshot past horizon", 0, 1200, 600, false},
		{"restored inside", 300, 0, 600, true},
		{"restored at horizon", 600, 0, 600, true},
		{"restored past horizon", 1200, 0, 600, false},
		{"restore then later snapshot", 300, 450, 600, true},
		{"restore then earlier snapshot", 1200, 900, 1200, false},
		{"restore then snapshot at restored time", 300, 300, 600, false},
		{"restore then snapshot past horizon", 300, 900, 600, false},
		{"negative snapshot means none", 0, -5, 600, true},
	}
	for _, c := range cases {
		err := checkWindow(c.restoredAt, c.snapshotAt, c.horizon)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkWindow(%v, %v, %v) = %v, want ok=%v", c.name, c.restoredAt, c.snapshotAt, c.horizon, err, c.ok)
		}
	}
}

package experiment

import (
	"reflect"
	"testing"

	"utilbp/internal/scenario"
	"utilbp/internal/sensing"
)

// TestMatrixSweepPooledMatchesSerial pins the pooled matrix scheduler
// bit-for-bit against the strictly sequential fresh-engine reference,
// across a matrix that exercises every cache-reuse axis at once:
// multiple workloads (the estimated 3×3 grid and the disrupted 16×16
// city grid share nothing), batch-capable and per-junction controller
// families, and perfect plus noisy sensors. Exact float equality —
// engine reuse, worker scheduling and completion order must not perturb
// a single bit. CI runs it under -race.
func TestMatrixSweepPooledMatchesSerial(t *testing.T) {
	workloads := []string{"estimated-grid", "city-grid-incident"}
	controllers := []scenario.ControllerSpec{
		{Kind: scenario.ControllerMaxPressure},
		{Kind: scenario.ControllerGapOut, MinGreenSec: 4, MaxGreenSec: 16, GapSec: 2},
		{Kind: scenario.ControllerBPEst},
	}
	sensors := []sensing.Spec{{}, sensing.CV(0.3)}
	seeds := []uint64{5, 6}

	serial, err := matrixSweep(workloads, controllers, sensors, seeds, 120, false)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := MatrixSweep(workloads, controllers, sensors, seeds, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(workloads)*len(controllers)*len(sensors) {
		t.Fatalf("serial rows = %d, want %d", len(serial), len(workloads)*len(controllers)*len(sensors))
	}
	if !reflect.DeepEqual(serial, pooled) {
		for i := range serial {
			if !reflect.DeepEqual(serial[i], pooled[i]) {
				t.Fatalf("row %d diverges:\nserial %+v\npooled %+v", i, serial[i], pooled[i])
			}
		}
		t.Fatal("matrix results diverge")
	}
	for _, r := range serial {
		if r.Mean <= 0 {
			t.Fatalf("degenerate row %+v: mean wait must be positive", r)
		}
	}
}

// TestMatrixSweepDefaultAxes runs the default matrix axes — every
// controller family of DefaultMatrixControllers × {perfect, cv:0.3} ×
// two seeds — on the paper grid and both city-scale workloads, the
// 36-row matrix DESIGN.md §13 documents. Rows come back in workload →
// controller → sensor order, every row carries traffic, and fixed-time,
// which ignores observations, gives identical rows under both sensors.
func TestMatrixSweepDefaultAxes(t *testing.T) {
	workloads := []string{"paper-grid", "city-grid", "city-grid-incident"}
	controllers := DefaultMatrixControllers()
	sensors := []sensing.Spec{{}, sensing.CV(0.3)}
	rows, err := MatrixSweep(workloads, controllers, sensors, []uint64{1, 2}, 900)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 36 {
		t.Fatalf("%d rows, want 36", len(rows))
	}
	perWorkload := len(controllers) * len(sensors)
	for i, r := range rows {
		if want := workloads[i/perWorkload]; r.Workload != want {
			t.Fatalf("row %d: workload %s, want %s", i, r.Workload, want)
		}
		if want := controllers[i%perWorkload/len(sensors)]; r.Controller != want {
			t.Fatalf("row %d: controller %v, want %v", i, r.Controller, want)
		}
		if want := sensors[i%len(sensors)]; r.Sensor != want {
			t.Fatalf("row %d: sensor %v, want %v", i, r.Sensor, want)
		}
		if !(r.Mean > 0) || !(r.CompletionRate > 0 && r.CompletionRate <= 1) {
			t.Fatalf("row %d (%s %v %v): mean wait %v, completion rate %v",
				i, r.Workload, r.Controller, r.Sensor, r.Mean, r.CompletionRate)
		}
		if r.Controller.Kind == scenario.ControllerFixed && r.Sensor == sensors[1] {
			if perfect := rows[i-1]; !reflect.DeepEqual(perfect.SeedRow, r.SeedRow) {
				t.Errorf("%s: fixed-time rows differ by sensor:\nperfect %+v\ncv      %+v",
					r.Workload, perfect.SeedRow, r.SeedRow)
			}
		}
	}
}

// TestMatrixSweepValidation covers the argument contract: unknown
// workloads and empty axes fail before any cell runs.
func TestMatrixSweepValidation(t *testing.T) {
	ctl := []scenario.ControllerSpec{{}}
	specs := []sensing.Spec{{}}
	seeds := []uint64{1}
	cases := []struct {
		name string
		err  func() error
	}{
		{"unknown workload", func() error {
			_, err := MatrixSweep([]string{"no-such-workload"}, ctl, specs, seeds, 60)
			return err
		}},
		{"no workloads", func() error {
			_, err := MatrixSweep(nil, ctl, specs, seeds, 60)
			return err
		}},
		{"no controllers", func() error {
			_, err := MatrixSweep([]string{"paper-grid"}, nil, specs, seeds, 60)
			return err
		}},
		{"no sensors", func() error {
			_, err := MatrixSweep([]string{"paper-grid"}, ctl, nil, seeds, 60)
			return err
		}},
		{"no seeds", func() error {
			_, err := MatrixSweep([]string{"paper-grid"}, ctl, specs, nil, 60)
			return err
		}},
		{"invalid controller", func() error {
			bad := []scenario.ControllerSpec{{Kind: scenario.ControllerKind(99)}}
			_, err := MatrixSweep([]string{"paper-grid"}, bad, specs, seeds, 60)
			return err
		}},
		{"invalid sensor", func() error {
			bad := []sensing.Spec{sensing.CV(2)}
			_, err := MatrixSweep([]string{"paper-grid"}, ctl, bad, seeds, 60)
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.err() == nil {
				t.Fatal("want error, got nil")
			}
		})
	}
}

// TestPenetrationMatrixSweep crosses the connected-vehicle penetration
// axis through every controller family of the default matrix and checks
// the row-order contract: rows grouped per controller with the sensor
// axis running perfect, then the cv rates in ascending order, for every
// family — the full sensing × control cross of DESIGN.md §13.
func TestPenetrationMatrixSweep(t *testing.T) {
	rates := []float64{0.3, 0.8}
	controllers := DefaultMatrixControllers()
	wantSensors := PenetrationSpecs(rates)
	rows, err := MatrixSweep([]string{"paper-grid"}, controllers, wantSensors, []uint64{1}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(controllers)*len(wantSensors) {
		t.Fatalf("%d rows, want %d", len(rows), len(controllers)*len(wantSensors))
	}
	for i, r := range rows {
		if want := controllers[i/len(wantSensors)]; r.Controller != want {
			t.Fatalf("row %d: controller %v, want %v", i, r.Controller, want)
		}
		if want := wantSensors[i%len(wantSensors)]; r.Sensor != want {
			t.Fatalf("row %d: sensor %v, want %v", i, r.Sensor, want)
		}
		if r.Mean <= 0 {
			t.Fatalf("degenerate row %+v: mean wait must be positive", r)
		}
	}
}

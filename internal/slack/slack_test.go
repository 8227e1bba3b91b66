package slack

import (
	"testing"

	"stretch/internal/queueing"
)

func qcfg() queueing.Config {
	return queueing.Config{
		Workers:       8,
		MeanServiceMs: 5,
		ServiceCV:     1.0,
		BurstProb:     0.1,
		BurstLen:      3,
		QoSQuantile:   0.99,
		QoSTargetMs:   100,
	}
}

func TestRequiredPerfMonotoneInLoad(t *testing.T) {
	c := qcfg()
	peak, err := queueing.PeakLoad(c, 15000, 3)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := Curve(c, peak, []float64{0.2, 0.9}, 15000, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	low, high := pts[0].RequiredPerf, pts[1].RequiredPerf
	if low > high {
		t.Fatalf("required perf fell with load: %v@20%% vs %v@90%%", low, high)
	}
	if high < 0.5 {
		t.Fatalf("near-peak required perf %v implausibly low", high)
	}
	if low > 0.7 {
		t.Fatalf("low-load required perf %v implausibly high (no slack)", low)
	}
}

func TestRequiredPerfOverload(t *testing.T) {
	c := qcfg()
	// Far beyond saturation: even full performance fails -> 1.
	pts, err := Curve(c, 10000, []float64{1}, 10000, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rp := pts[0].RequiredPerf; rp != 1 {
		t.Fatalf("overloaded RequiredPerf = %v, want 1", rp)
	}
}

func TestCurveShape(t *testing.T) {
	c := qcfg()
	peak, err := queueing.PeakLoad(c, 15000, 9)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := Curve(c, peak, []float64{0.2, 0.5, 0.8}, 15000, 0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	for _, p := range pts {
		if p.Slack != 1-p.RequiredPerf {
			t.Fatal("slack identity broken")
		}
	}
	if pts[0].Slack < pts[2].Slack {
		t.Fatalf("slack must shrink with load: %v < %v", pts[0].Slack, pts[2].Slack)
	}
	if _, err := Curve(c, peak, []float64{0.5}, 1000, 1.5, 9); err == nil {
		t.Fatal("bad resolution accepted")
	}
}

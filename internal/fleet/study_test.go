package fleet

import (
	"flag"
	"sort"
	"strings"
	"testing"

	"stretch/internal/core"
	"stretch/internal/monitor"
)

func TestTracesShape(t *testing.T) {
	for _, tr := range []DiurnalTrace{WebSearchTrace(), YouTubeTrace()} {
		peak := 0.0
		for h, l := range tr.HourLoad {
			if l <= 0 || l > 1 {
				t.Errorf("%s hour %d load %v out of (0,1]", tr.Name, h, l)
			}
			if l > peak {
				peak = l
			}
		}
		if peak != 1.0 {
			t.Errorf("%s never reaches peak (max %v)", tr.Name, peak)
		}
	}
}

func TestPaperEngageableHours(t *testing.T) {
	count := func(tr DiurnalTrace) int {
		n := 0
		for _, l := range tr.HourLoad {
			if l < 0.85 {
				n++
			}
		}
		return n
	}
	if got := count(WebSearchTrace()); got != 11 {
		t.Fatalf("Web Search trace has %d engageable hours, want 11 (§VI-D)", got)
	}
	if got := count(YouTubeTrace()); got != 17 {
		t.Fatalf("YouTube trace has %d engageable hours, want 17 (§VI-D)", got)
	}
}

func TestStudyRunGainMath(t *testing.T) {
	s := Study{Trace: WebSearchTrace(), EngageBelow: 0.85, BatchSpeedupB: 0.13}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.EngagedHours != 11 {
		t.Fatalf("engaged %d hours", res.EngagedHours)
	}
	want := 0.13 * 11.0 / 24.0
	if diff := res.ClusterGain - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("gain = %v, want %v", res.ClusterGain, want)
	}
	if len(res.Hours) != 24 {
		t.Fatalf("%d hour records", len(res.Hours))
	}
	for _, h := range res.Hours {
		if (h.Mode == core.ModeB) != (h.Load < 0.85) {
			t.Fatalf("hour %d: mode %v at load %v", h.Hour, h.Mode, h.Load)
		}
	}
}

// TestThresholdTimeline pins Study.Run's hour rule at the threshold: a
// load strictly below EngageBelow engages B-mode and earns 1+BatchSpeedupB,
// anything at or above it stays at the baseline's 1.
func TestThresholdTimeline(t *testing.T) {
	tr := DiurnalTrace{Name: "edge"}
	for h := range tr.HourLoad {
		tr.HourLoad[h] = 1
	}
	copy(tr.HourLoad[:], []float64{0.2, 0.9, 0.84, 0.86, 0.85})
	res, err := (Study{Trace: tr, EngageBelow: 0.85, BatchSpeedupB: 0.10}).Run()
	if err != nil {
		t.Fatal(err)
	}
	wantModes := []core.Mode{core.ModeB, core.ModeBaseline, core.ModeB, core.ModeBaseline, core.ModeBaseline}
	for h, want := range wantModes {
		if hr := res.Hours[h]; hr.Mode != want {
			t.Fatalf("hour %d at load %v: mode %v, want %v", h, hr.Load, hr.Mode, want)
		}
	}
	if res.Hours[0].BatchRel != 1.10 || res.Hours[1].BatchRel != 1 || res.EngagedHours != 2 {
		t.Fatalf("batch rel %v/%v, engaged %d", res.Hours[0].BatchRel, res.Hours[1].BatchRel, res.EngagedHours)
	}
}

func TestStudyRunValidation(t *testing.T) {
	if _, err := (Study{Trace: WebSearchTrace(), EngageBelow: 0}).Run(); err == nil {
		t.Fatal("zero threshold accepted")
	}
	if _, err := (Study{Trace: WebSearchTrace(), EngageBelow: 1.5}).Run(); err == nil {
		t.Fatal("threshold above 1 accepted")
	}
	if _, err := (Study{Trace: WebSearchTrace(), EngageBelow: 0.85, BatchSpeedupB: -1}).Run(); err == nil {
		t.Fatal("negative speedup accepted")
	}
}

// TestControlledTimelineValidation checks RunWithController's input
// errors, then that sustained slack engages B-mode for whole hours.
func TestControlledTimelineValidation(t *testing.T) {
	s := Study{Trace: WebSearchTrace(), EngageBelow: 0.85, BatchSpeedupB: 0.13}
	ctl, err := monitor.New(monitor.DefaultConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	tail := func(load float64, mode core.Mode) monitor.Observation { return monitor.Observation{TailMs: 10} }
	if _, err := s.RunWithController(ctl, 0, tail); err == nil {
		t.Error("zero windows per hour accepted")
	}
	if _, err := s.RunWithController(nil, 1, tail); err == nil {
		t.Error("nil controller accepted")
	}
	if _, err := s.RunWithController(ctl, 1, nil); err == nil {
		t.Error("nil tail model accepted")
	}
	res, err := s.RunWithController(ctl, 4, tail)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hours) != 24 {
		t.Fatalf("%d hour records", len(res.Hours))
	}
	if hr := res.Hours[3]; hr.Mode != core.ModeB || hr.BatchRel != 1+s.BatchSpeedupB {
		t.Fatalf("sustained slack did not engage B for the whole hour: %+v", hr)
	}
}

func TestStudyRunWithControllerTracksLoad(t *testing.T) {
	s := Study{Trace: WebSearchTrace(), EngageBelow: 0.85, BatchSpeedupB: 0.13, LSSlowdownB: 0.07}
	ctl, err := monitor.New(monitor.DefaultConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWithController(ctl, 10, func(load float64, mode core.Mode) monitor.Observation {
		// Low load -> low tail; high load -> violation band.
		if load < 0.7 {
			return monitor.Observation{TailMs: 40}
		}
		if load < 0.9 {
			return monitor.Observation{TailMs: 85}
		}
		return monitor.Observation{TailMs: 99}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EngagedHours == 0 {
		t.Fatal("controller never engaged B-mode on an idle night")
	}
	if res.EngagedHours > 16 {
		t.Fatalf("controller engaged %d hours — should stay out at daytime load", res.EngagedHours)
	}
	if res.ClusterGain <= 0 {
		t.Fatal("no gain from controller-driven engagement")
	}
	if ctl.Switches() == 0 || ctl.Switches() > 10 {
		t.Fatalf("suspicious switch count %d", ctl.Switches())
	}
	if _, err := s.RunWithController(ctl, 0, nil); err == nil {
		t.Fatal("zero windows accepted")
	}
}

func TestStudyRunWithControllerSingleWindowPerHour(t *testing.T) {
	s := Study{Trace: WebSearchTrace(), EngageBelow: 0.85, BatchSpeedupB: 0.13}
	ctl, err := monitor.New(monitor.DefaultConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWithController(ctl, 1, func(load float64, mode core.Mode) monitor.Observation {
		if load < 0.8 {
			return monitor.Observation{TailMs: 40}
		}
		return monitor.Observation{TailMs: 99}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hours) != 24 {
		t.Fatalf("%d hour records", len(res.Hours))
	}
	// At one window per hour, each hour's engaged fraction is 0 or 1, so
	// BatchRel must be exactly 1 or 1+speedup.
	for _, h := range res.Hours {
		if h.BatchRel != 1 && h.BatchRel != 1.13 {
			t.Fatalf("hour %d: fractional BatchRel %v at hour grain", h.Hour, h.BatchRel)
		}
	}
	if res.EngagedHours == 0 || res.ClusterGain <= 0 {
		t.Fatalf("hour-grain controller never engaged (hours=%d gain=%v)",
			res.EngagedHours, res.ClusterGain)
	}
}

func TestStudyRunWithControllerNeverEngages(t *testing.T) {
	s := Study{Trace: WebSearchTrace(), EngageBelow: 0.85, BatchSpeedupB: 0.13}
	ctl, err := monitor.New(monitor.DefaultConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	// Tail pinned above the disengage band: no slack anywhere in the day.
	res, err := s.RunWithController(ctl, 12, func(load float64, mode core.Mode) monitor.Observation {
		return monitor.Observation{TailMs: 99}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EngagedHours != 0 {
		t.Fatalf("engaged %d hours with zero slack", res.EngagedHours)
	}
	if res.ClusterGain != 0 {
		t.Fatalf("gain %v without engagement", res.ClusterGain)
	}
	for _, h := range res.Hours {
		if h.Mode == core.ModeB || h.BatchRel != 1 {
			t.Fatalf("hour %d in B-mode under sustained pressure", h.Hour)
		}
	}
}

func TestStudyRunWithControllerHysteresisLimitsSwitches(t *testing.T) {
	s := Study{Trace: WebSearchTrace(), EngageBelow: 0.85, BatchSpeedupB: 0.13}
	ctl, err := monitor.New(monitor.DefaultConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	// Fine granularity (60 windows/hour = 1440 observations): hysteresis
	// must keep the switch count at the diurnal scale, not the window
	// scale — one engage and one disengage per load transition.
	if _, err := s.RunWithController(ctl, 60, func(load float64, mode core.Mode) monitor.Observation {
		if load < 0.85 {
			return monitor.Observation{TailMs: 50}
		}
		return monitor.Observation{TailMs: 99}
	}); err != nil {
		t.Fatal(err)
	}
	if sw := ctl.Switches(); sw == 0 || sw > 8 {
		t.Fatalf("switch count %d at 1440 windows/day — hysteresis broken", sw)
	}
}

// TestDigestsCompared fails when a line of the equivalence digest golden
// names a cell no test checked, so a renamed or deleted cell cannot leave
// its digest behind; under -update it rewrites the file with exactly the
// checked cells. It reads what checkDigest recorded, so it must run after
// every digest test: it is the last test of the package's last test file,
// and Go runs a package's tests in that order. A filtered, shuffled or
// -short run skips it.
func TestDigestsCompared(t *testing.T) {
	for _, name := range []string{"test.run", "test.skip"} {
		if f := flag.Lookup(name); f != nil && f.Value.String() != "" {
			t.Skipf("-%s filters the digest tests", strings.TrimPrefix(name, "test."))
		}
	}
	if f := flag.Lookup("test.shuffle"); f != nil && f.Value.String() != "off" {
		t.Skip("-shuffle may run this before the digest tests")
	}
	if testing.Short() {
		t.Skip("a -short run need not check every digest cell")
	}
	if len(checked) == 0 {
		t.Fatal("no digest cell was checked")
	}
	if *update {
		writeDigests(t, checked)
		return
	}
	var names []string
	for name := range readDigests(t) {
		if _, ok := checked[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		t.Errorf("%s: %s is checked by no test: delete its line or restore its cell", digestGolden, name)
	}
}

package experiments

import (
	"os"
	"strings"
	"testing"

	"stretch/internal/workload"
)

// The experiment tests run at Quick scale by default and assert the
// paper's qualitative shapes, not absolute numbers; set
// STRETCH_EXPERIMENTS_SCALE=full to run the full budgets. One shared
// context memoises the grids across the parallel tests (Context.Grid
// builds each grid exactly once).
var testCtx = NewContext(testScale())

func testScale() Scale {
	if os.Getenv("STRETCH_EXPERIMENTS_SCALE") == "full" {
		return Full
	}
	return Quick
}

func TestStaticTables(t *testing.T) {
	t.Parallel()
	t1 := Table1()
	if len(t1.Rows) != 4 {
		t.Fatalf("table1 rows = %d", len(t1.Rows))
	}
	if t1.Metrics["target_ms_"+workload.WebSearch] != 100 {
		t.Fatal("table1 Web Search target must be 100ms")
	}
	t2 := Table2()
	if t2.Metrics["rob_entries"] != 192 || t2.Metrics["lsq_entries"] != 64 {
		t.Fatal("table2 must read back 192/64 window sizes")
	}
	t3 := Table3()
	if len(t3.Rows) != 4 {
		t.Fatalf("table3 rows = %d", len(t3.Rows))
	}
	for _, tab := range []Table{t1, t2, t3} {
		if s := tab.String(); !strings.Contains(s, tab.ID) {
			t.Errorf("%s: String() missing id", tab.ID)
		}
	}
}

func TestFig1Shape(t *testing.T) {
	t.Parallel()
	tab, err := Fig1(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Metrics["p99_growth"] < 1.8 {
		t.Errorf("p99 grows only %.2fx across the load range (paper: >2.5x)", tab.Metrics["p99_growth"])
	}
	if tab.Metrics["p99_high"] > 101 {
		t.Errorf("p99 at peak (%.1f) exceeds the 100ms target", tab.Metrics["p99_high"])
	}
	// The tail must grow faster than the average in absolute terms.
	if tab.Metrics["p99_high"]-tab.Metrics["p99_low"] <= tab.Metrics["avg_growth"]*20 {
		t.Error("queueing delay does not dominate the tail")
	}
}

func TestFig2Shape(t *testing.T) {
	t.Parallel()
	tab, err := Fig2(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range workload.ServiceNames() {
		s20 := tab.Metrics["slack20_"+svc]
		s80 := tab.Metrics["slack80_"+svc]
		if s20 < 0.40 {
			t.Errorf("%s: only %.0f%% slack at 20%% load (paper: 55-90%%)", svc, 100*s20)
		}
		if s80 > 0.35 {
			t.Errorf("%s: %.0f%% slack at 80%% load (paper: <=20%%)", svc, 100*s80)
		}
		if s20 < s80 {
			t.Errorf("%s: slack grows with load", svc)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	t.Parallel()
	tab, err := Fig3(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	ls, batch := tab.Metrics["ls_mean"], tab.Metrics["batch_mean"]
	if batch <= ls {
		t.Fatalf("batch slowdown (%.0f%%) must exceed LS slowdown (%.0f%%)", 100*batch, 100*ls)
	}
	if ls < 0.05 || ls > 0.30 {
		t.Errorf("LS mean slowdown %.0f%% outside plausible band (paper 14%%)", 100*ls)
	}
	if batch < 0.15 || batch > 0.45 {
		t.Errorf("batch mean slowdown %.0f%% outside plausible band (paper 24%%)", 100*batch)
	}
}

func TestFig4ROBDominates(t *testing.T) {
	t.Parallel()
	tab, err := Fig4(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	rob := tab.Metrics["batch_mean_ROB"]
	for _, other := range []string{"L1-I", "L1-D", "BTB+BP"} {
		if rob <= tab.Metrics["batch_mean_"+other] {
			t.Errorf("ROB (%.1f%%) must dominate %s (%.1f%%) for batch degradation",
				100*rob, other, 100*tab.Metrics["batch_mean_"+other])
		}
	}
	// Web Search's own degradation from any single resource stays modest.
	for _, r := range []string{"ROB", "L1-I", "L1-D", "BTB+BP"} {
		if tab.Metrics["ls_mean_"+r] > 0.20 {
			t.Errorf("Web Search loses %.0f%% from sharing %s alone (paper: ~within 12%%)",
				100*tab.Metrics["ls_mean_"+r], r)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	t.Parallel()
	tab, err := Fig6(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	// LS nearly insensitive at 96; zeusmp strongly sensitive.
	for _, svc := range workload.ServiceNames() {
		if tab.Metrics[svc+"_96"] > 0.12 {
			t.Errorf("%s loses %.0f%% at 96 entries (paper: 5-10%%)", svc, 100*tab.Metrics[svc+"_96"])
		}
		if tab.Metrics[svc+"_48"] > 0.30 {
			t.Errorf("%s loses %.0f%% at 48 entries (paper: <=23%%)", svc, 100*tab.Metrics[svc+"_48"])
		}
	}
	z96 := tab.Metrics[workload.Zeusmp+"_96"]
	if z96 < 0.15 {
		t.Errorf("zeusmp loses only %.0f%% at 96 (paper: ~31%%)", 100*z96)
	}
	avg96 := tab.Metrics["batch_avg_96"]
	if avg96 < 0.10 || avg96 > 0.35 {
		t.Errorf("batch average at 96 = %.0f%% (paper: 19%%)", 100*avg96)
	}
	if tab.Metrics["batch_avg_160"] > avg96/1.5 {
		t.Errorf("batch slowdown at 160 (%.0f%%) should be far below 96 (%.0f%%)",
			100*tab.Metrics["batch_avg_160"], 100*avg96)
	}
}

func TestFig7MLPContrast(t *testing.T) {
	t.Parallel()
	tab, err := Fig7(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	ws := tab.Metrics["mlp2_"+workload.WebSearch]
	z := tab.Metrics["mlp2_"+workload.Zeusmp]
	if z < 3*ws {
		t.Errorf("zeusmp MLP>=2 (%.0f%%) must dwarf web-search (%.0f%%); paper 55%% vs 9%%",
			100*z, 100*ws)
	}
	if ws > 0.25 {
		t.Errorf("web-search exhibits MLP %.0f%% of the time (paper: 9%%)", 100*ws)
	}
}

func TestFig9BModeTradeoff(t *testing.T) {
	t.Parallel()
	tab, err := Fig9(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	bGain := tab.Metrics["B_56_batch_mean"]
	lsCost := -tab.Metrics["B_56_ls_mean"]
	if bGain < 0.08 || bGain > 0.25 {
		t.Errorf("B-mode 56-136 batch gain %.0f%% (paper: 13%%)", 100*bGain)
	}
	if lsCost < 0.02 || lsCost > 0.15 {
		t.Errorf("B-mode 56-136 LS cost %.0f%% (paper: 7%%)", 100*lsCost)
	}
	// Deeper skew gives more batch gain.
	if tab.Metrics["B_32_batch_mean"] <= bGain {
		t.Error("32-160 must out-gain 56-136 for batch")
	}
	// Q-mode: LS gains modestly, batch pays.
	if tab.Metrics["Q_136_ls_mean"] <= 0 {
		t.Error("Q-mode must speed up the LS thread")
	}
	if tab.Metrics["Q_136_batch_mean"] >= 0 {
		t.Error("Q-mode must cost the batch thread")
	}
	if tab.Metrics["Q_136_ls_mean"] >= bGain {
		t.Error("Q-mode LS gain should be smaller than B-mode batch gain (LS is window-insensitive)")
	}
}

func TestFig11DynamicSharing(t *testing.T) {
	t.Parallel()
	tab, err := Fig11(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	// Known divergence from the paper (see the table note): our model's
	// LS thread cannot clog the shared pool, so the batch side gains
	// modestly instead of losing 8%. The test pins the model's stable
	// behaviour: batch change bounded, LS essentially unharmed, and —
	// critically for the paper's argument — dynamic sharing buys far
	// less than Stretch's explicit B-mode repartitioning (fig12 checks
	// the comparison directly).
	batchGain := -tab.Metrics["batch_slow_mean"]
	if batchGain < -0.10 || batchGain > 0.20 {
		t.Errorf("dynamic-vs-equal batch change %.1f%% outside modelled band", 100*batchGain)
	}
	if ls := tab.Metrics["ls_gain_mean"]; ls < -0.08 || ls > 0.10 {
		t.Errorf("dynamic-vs-equal LS change %.1f%% outside modelled band", 100*ls)
	}
}

func TestFig12StretchDominatesThrottling(t *testing.T) {
	t.Parallel()
	tab, err := Fig12(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	sGain := tab.Metrics["stretch_batch_gain"]
	sCost := tab.Metrics["stretch_ls_slow"]
	// Aggressive throttling destroys LS performance for little batch gain.
	if tab.Metrics["ft16_ls_slow"] < 2*sCost {
		t.Errorf("1:16 throttling LS cost %.0f%% should far exceed Stretch's %.0f%%",
			100*tab.Metrics["ft16_ls_slow"], 100*sCost)
	}
	if tab.Metrics["ft16_batch_gain"] >= sGain {
		t.Errorf("1:16 throttling batch gain %.0f%% should trail Stretch's %.0f%%",
			100*tab.Metrics["ft16_batch_gain"], 100*sGain)
	}
	if tab.Metrics["ft4_batch_gain"] >= sGain {
		t.Errorf("1:4 throttling batch gain should trail Stretch")
	}
}

func TestFig13Additive(t *testing.T) {
	t.Parallel()
	tab, err := Fig13(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	ideal, st, both := tab.Metrics["ideal_mean"], tab.Metrics["stretch_mean"], tab.Metrics["both_mean"]
	if st <= ideal {
		t.Errorf("Stretch (%.0f%%) should beat ideal software scheduling (%.0f%%); paper 13%% vs 8%%",
			100*st, 100*ideal)
	}
	if both <= st || both <= ideal {
		t.Errorf("combined (%.0f%%) must beat either alone (%.0f%%, %.0f%%)",
			100*both, 100*ideal, 100*st)
	}
}

func TestFig14CaseStudies(t *testing.T) {
	t.Parallel()
	tab, err := Fig14(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	ws := tab.Metrics["gain_web-search-cluster"]
	yt := tab.Metrics["gain_youtube-cluster"]
	if ws < 0.02 || ws > 0.12 {
		t.Errorf("Web Search cluster gain %.1f%% (paper ~5%%)", 100*ws)
	}
	if yt < 0.05 || yt > 0.18 {
		t.Errorf("YouTube cluster gain %.1f%% (paper ~11%%)", 100*yt)
	}
	if yt <= ws {
		t.Error("YouTube (17 engageable hours) must gain more than Web Search (11)")
	}
	if tab.Metrics["hours_web-search-cluster"] != 11 || tab.Metrics["hours_youtube-cluster"] != 17 {
		t.Error("engageable hours must match §VI-D")
	}
	if tab.Metrics["ctl_switches_web-search-cluster"] > 20 {
		t.Error("controller flaps on the diurnal trace")
	}
}

func TestAblations(t *testing.T) {
	t.Parallel()
	lsq, err := AblationLSQCoupling(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	if lsq.Metrics["coupled_mean"] <= lsq.Metrics["decoupled_mean"] {
		t.Error("proportional LSQ must out-gain the equal LSQ split")
	}

	mshr, err := AblationMSHR(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	if mshr.Metrics["zeusmp_10"] <= mshr.Metrics["zeusmp_2"] {
		t.Error("zeusmp must scale with MSHRs")
	}
	wsGain := mshr.Metrics[workload.WebSearch+"_10"] / mshr.Metrics[workload.WebSearch+"_2"]
	zGain := mshr.Metrics["zeusmp_10"] / mshr.Metrics["zeusmp_2"]
	if zGain <= wsGain {
		t.Error("MSHR scaling must favour the high-MLP workload")
	}

	pf, err := AblationPrefetcher(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Metrics["speedup_libquantum"] <= 0 {
		t.Error("prefetcher must help the streaming benchmark")
	}

	fl, err := AblationFlushCost(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	if fl.Metrics["loss_100000"] > 0.05 {
		t.Errorf("infrequent mode switches cost %.1f%% — should be negligible", 100*fl.Metrics["loss_100000"])
	}
	if fl.Metrics["loss_1000"] <= fl.Metrics["loss_100000"] {
		t.Error("pathological flapping must cost more than infrequent switching")
	}

	sig, err := AblationControllerSignal(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	if sig.Metrics["gain_tail-latency"] <= 0 {
		t.Error("tail-latency controller produced no gain")
	}
	// The queue-length controller reads a queue depth that rises with the
	// diurnal load, so it leaves B-mode at the daytime peak and re-engages
	// after it, instead of holding B-mode all day on an always-empty queue.
	if h := sig.Metrics["hours_queue-length"]; h <= 0 || h >= 24 {
		t.Errorf("queue-length controller engaged B-mode for %v of 24 hours, want some but not all", h)
	}
	if sw := sig.Metrics["switches_queue-length"]; sw < 2 {
		t.Errorf("queue-length controller switched %v times, want at least 2", sw)
	}
}

func TestByIDAndAll(t *testing.T) {
	t.Parallel()
	if len(All()) < 19 {
		t.Fatalf("only %d experiments registered", len(All()))
	}
	if _, err := ByID("fig9"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
	// Scales and context helpers.
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Fatal("scale strings")
	}
	if len(NewContext(Full).BatchNames()) != 29 {
		t.Fatal("full scale must use all 29 benchmarks")
	}
	if len(NewContext(Quick).BatchNames()) >= 29 {
		t.Fatal("quick scale must subset")
	}
}

func TestFig10SpreadAndSorting(t *testing.T) {
	t.Parallel()
	tab, err := Fig10(testCtx)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Metrics["mean"] < 0.05 || tab.Metrics["mean"] > 0.25 {
		t.Errorf("B-mode mean gain %.0f%% outside band (paper 13%%)", 100*tab.Metrics["mean"])
	}
	if tab.Metrics["max"] <= tab.Metrics["mean"] {
		t.Error("max gain must exceed the mean")
	}
	if tab.Metrics["min"] < -0.05 {
		t.Errorf("no benchmark should lose much under B-mode (min %.0f%%)", 100*tab.Metrics["min"])
	}
	// Rows are sorted descending per service column.
	if len(tab.Rows) != len(testCtx.BatchNames()) {
		t.Fatalf("%d rows", len(tab.Rows))
	}
}

func TestExperimentDeterminism(t *testing.T) {
	t.Parallel()
	a, err := Fig7(NewContext(Quick))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig7(NewContext(Quick))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a.Metrics {
		if b.Metrics[k] != v {
			t.Errorf("metric %s differs across identical runs: %v vs %v", k, v, b.Metrics[k])
		}
	}
}

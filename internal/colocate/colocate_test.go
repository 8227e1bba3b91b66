package colocate

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"stretch/internal/core"
	"stretch/internal/sampling"
	"stretch/internal/workload"
)

func TestConfigConstructors(t *testing.T) {
	b := BaselineConfig()
	if !b.SharedL1I || !b.SharedL1D || !b.SharedBP || b.ROBPolicy != core.ROBPartitioned {
		t.Fatal("baseline must share everything and partition the ROB")
	}
	if b.ROBLimit != [2]int{96, 96} {
		t.Fatalf("baseline limits %v", b.ROBLimit)
	}

	s := SkewConfig(56)
	if s.ROBLimit != [2]int{56, 136} {
		t.Fatalf("skew limits %v", s.ROBLimit)
	}

	d := DynamicConfig()
	if d.ROBPolicy != core.ROBDynamic {
		t.Fatal("dynamic config policy")
	}

	ft := ThrottleConfig(8)
	if ft.FetchThrottle != 8 || ft.ROBPolicy != core.ROBDynamic || ft.ThrottledThread != 0 {
		t.Fatalf("throttle config %+v", ft)
	}
	if ThrottleConfig(1).FetchThrottle != 0 {
		t.Fatal("ratio 1:1 must disable throttling (it equals dynamic sharing)")
	}
}

func TestShareOnlyConfigs(t *testing.T) {
	for _, r := range Resources() {
		cfg := ShareOnlyConfig(r)
		if (cfg.SharedL1I && r != ResL1I) || (!cfg.SharedL1I && r == ResL1I) {
			t.Errorf("%v: L1I sharing wrong", r)
		}
		if (cfg.SharedL1D && r != ResL1D) || (!cfg.SharedL1D && r == ResL1D) {
			t.Errorf("%v: L1D sharing wrong", r)
		}
		if (cfg.SharedBP && r != ResBTBBP) || (!cfg.SharedBP && r == ResBTBBP) {
			t.Errorf("%v: BP sharing wrong", r)
		}
		if r == ResROB {
			if cfg.ROBPolicy != core.ROBPartitioned {
				t.Error("ROB study must use the static split")
			}
		} else if cfg.ROBPolicy != core.ROBPrivate {
			t.Errorf("%v: everything else must give full private windows", r)
		}
		if !cfg.SharedL1D && cfg.MSHRPerThread != 10 {
			t.Errorf("%v: private L1-D implies the full 10-MSHR budget", r)
		}
		if cfg.SharedL1D && cfg.MSHRPerThread != 5 {
			t.Errorf("%v: shared L1-D implies 5 MSHRs per thread", r)
		}
	}
}

func TestIdealSchedulingConfig(t *testing.T) {
	cfg := IdealSchedulingConfig(0)
	if cfg.SharedL1I || cfg.SharedL1D || cfg.SharedBP {
		t.Fatal("ideal scheduling must privatise all dynamically shared structures")
	}
	if cfg.ROBLimit != [2]int{96, 96} {
		t.Fatalf("ideal scheduling keeps the equal split: %v", cfg.ROBLimit)
	}
	combo := IdealSchedulingConfig(56)
	if combo.ROBLimit != [2]int{56, 136} {
		t.Fatalf("combined config limits %v", combo.ROBLimit)
	}
}

func TestNormalisations(t *testing.T) {
	if Slowdown(0.8, 1.0) != 0.19999999999999996 && Slowdown(0.8, 1.0) != 0.2 {
		t.Fatalf("Slowdown = %v", Slowdown(0.8, 1.0))
	}
	if Speedup(1.2, 1.0) <= 0.19 || Speedup(1.2, 1.0) >= 0.21 {
		t.Fatalf("Speedup = %v", Speedup(1.2, 1.0))
	}
	if Slowdown(1, 0) != 0 || Speedup(1, 0) != 0 {
		t.Fatal("zero baselines must yield 0")
	}
}

func TestGridSmall(t *testing.T) {
	grid, err := NewLab(sampling.Quick()).Grid(BaselineConfig(),
		[]string{workload.WebSearch}, []string{"povray", workload.Zeusmp})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 1 || len(grid[workload.WebSearch]) != 2 {
		t.Fatalf("grid shape wrong: %d services", len(grid))
	}
	for b, p := range grid[workload.WebSearch] {
		if p.LSAgg.IPC <= 0 || p.BatchAgg.IPC <= 0 {
			t.Errorf("%s: non-positive IPCs", b)
		}
		if p.LS != workload.WebSearch || p.Batch != b {
			t.Errorf("%s: mislabelled pair %+v", b, p)
		}
	}
}

func TestGridUnknownWorkload(t *testing.T) {
	lab := NewLab(sampling.Quick())
	if _, err := lab.Grid(BaselineConfig(), []string{"nope"}, []string{"povray"}); err == nil {
		t.Fatal("unknown LS accepted")
	}
	if _, err := lab.Grid(BaselineConfig(), []string{workload.WebSearch}, []string{"nope"}); err == nil {
		t.Fatal("unknown batch accepted")
	}
	if _, err := lab.Grid(BaselineConfig(), []string{workload.WebSearch}, []string{""}); err == nil {
		t.Fatal("empty batch name accepted as a solo run")
	}
}

func TestSoloIPC(t *testing.T) {
	lab := NewLab(sampling.Quick())
	m, err := lab.Solo(core.Solo(), "povray", workload.Zeusmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m["povray"].IPC <= 0 || m[workload.Zeusmp].IPC <= 0 {
		t.Fatalf("solo map %v", m)
	}
	if _, err := lab.Solo(core.Solo(), "nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestLabSharesCells is the Lab's contract under concurrency: goroutines
// asking one Lab for overlapping grids and solo runs get exactly what a
// direct sampling call on the same inputs returns, two configs that
// compare equal under different names share their cells, and a failing
// cell's error reaches every caller of it, not only the first.
func TestLabSharesCells(t *testing.T) {
	spec := sampling.Quick()
	lab := NewLab(spec)
	ideal, shareROB := IdealSchedulingConfig(0), ShareOnlyConfig(ResROB)
	if ideal != shareROB {
		t.Fatal("IdealSchedulingConfig(0) no longer equals ShareOnlyConfig(ResROB); pick two equal configs")
	}
	ls := []string{workload.WebSearch}
	batch := []string{"povray", workload.Zeusmp}

	const rounds = 3
	var wg sync.WaitGroup
	var (
		grids [rounds][2]map[string]map[string]Pair
		base  [rounds]map[string]map[string]Pair
		solos [rounds][2]map[string]sampling.Agg
	)
	errs := make(chan error, 8*rounds)
	for r := 0; r < rounds; r++ {
		wg.Add(5)
		go func() {
			defer wg.Done()
			var err error
			grids[r][0], err = lab.Grid(ideal, ls, batch)
			errs <- err
		}()
		go func() {
			defer wg.Done()
			var err error
			grids[r][1], err = lab.Grid(shareROB, ls, batch)
			errs <- err
		}()
		go func() {
			defer wg.Done()
			var err error
			base[r], err = lab.Grid(BaselineConfig(), ls, batch[1:])
			errs <- err
		}()
		go func() {
			defer wg.Done()
			var err error
			solos[r][0], err = lab.Solo(core.Solo(), workload.WebSearch, "povray")
			errs <- err
		}()
		go func() {
			defer wg.Done()
			var err error
			solos[r][1], err = lab.Solo(core.Solo(), "povray", workload.Zeusmp)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	want := map[string]map[string]Pair{workload.WebSearch: {}}
	for _, b := range batch {
		lp, _ := workload.Lookup(workload.WebSearch)
		bp, _ := workload.Lookup(b)
		a0, a1, err := sampling.Colocated(ideal, lp, bp, spec)
		if err != nil {
			t.Fatal(err)
		}
		want[workload.WebSearch][b] = Pair{LS: workload.WebSearch, Batch: b, LSAgg: a0, BatchAgg: a1}
	}
	lp, _ := workload.Lookup(workload.WebSearch)
	zp, _ := workload.Lookup(workload.Zeusmp)
	b0, b1, err := sampling.Colocated(BaselineConfig(), lp, zp, spec)
	if err != nil {
		t.Fatal(err)
	}
	wantBase := map[string]map[string]Pair{workload.WebSearch: {
		workload.Zeusmp: {LS: workload.WebSearch, Batch: workload.Zeusmp, LSAgg: b0, BatchAgg: b1}}}
	wantSolo := map[string]sampling.Agg{}
	for _, n := range []string{workload.WebSearch, "povray", workload.Zeusmp} {
		p, _ := workload.Lookup(n)
		a, err := sampling.Solo(core.Solo(), p, spec)
		if err != nil {
			t.Fatal(err)
		}
		wantSolo[n] = a
	}
	for r := 0; r < rounds; r++ {
		for k, g := range grids[r] {
			if !reflect.DeepEqual(g, want) {
				t.Errorf("round %d grid %d differs from direct sampling.Colocated", r, k)
			}
		}
		if !reflect.DeepEqual(base[r], wantBase) {
			t.Errorf("round %d baseline grid differs from direct sampling.Colocated", r)
		}
		for k, names := range [][]string{{workload.WebSearch, "povray"}, {"povray", workload.Zeusmp}} {
			for _, n := range names {
				if !reflect.DeepEqual(solos[r][k][n], wantSolo[n]) {
					t.Errorf("round %d solo %s differs from direct sampling.Solo", r, n)
				}
			}
		}
	}

	// Two ideal/share-ROB cells, one baseline cell, three solo cells,
	// each simulated once across every round and caller.
	if n := lab.runs.Load(); n != 6 {
		t.Errorf("lab ran %d simulations, want 6: equal configs and repeated calls must share cells", n)
	}

	// Every caller of a failing cell sees its error, concurrent or later.
	var failed sync.WaitGroup
	gridErrs := make([]error, 4)
	soloErrs := make([]error, 4)
	for i := range gridErrs {
		failed.Add(2)
		go func() {
			defer failed.Done()
			_, gridErrs[i] = lab.Grid(BaselineConfig(), []string{"nope"}, batch)
		}()
		go func() {
			defer failed.Done()
			_, soloErrs[i] = lab.Solo(core.Solo(), "povray", "nope")
		}()
	}
	failed.Wait()
	_, lateErr := lab.Solo(core.Solo(), "nope")
	for i, err := range append(append(gridErrs, soloErrs...), lateErr) {
		if err == nil || !strings.Contains(err.Error(), "nope") {
			t.Errorf("caller %d of the unknown workload's cell got %v", i, err)
		}
	}
}

func TestResourceStrings(t *testing.T) {
	want := map[Resource]string{ResROB: "ROB", ResL1I: "L1-I", ResL1D: "L1-D", ResBTBBP: "BTB+BP"}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%v.String() = %q", r, r.String())
		}
	}
	if Resource(99).String() != "?" {
		t.Error("unknown resource string")
	}
}

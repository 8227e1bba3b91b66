package tracefile

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"stretch/internal/fleet"
	"stretch/internal/loadgen"
	"stretch/internal/workload"
)

// synthSpec is a small two-client spec exercising mixture arrivals, batch
// pairing, SLO classes and scenario annotations.
func synthSpec() SynthSpec {
	events, err := loadgen.ParseEvents("drain:3:1,surge:4-6:search:1.5,perf:0:0.92")
	if err != nil {
		panic(err)
	}
	return SynthSpec{
		Traffic: loadgen.Traffic{
			Windows: 12, WindowSec: 300,
			Clients: []loadgen.Client{
				{Name: "search", Service: workload.WebSearch, Fraction: 0.6, SLO: loadgen.SLOStrict,
					Spec: loadgen.Spec{Shape: loadgen.Constant{Rate: 1800}, Process: loadgen.ArrivalGamma, CV: 1.2}},
				{Name: "media", Service: workload.MediaStreaming, Batch: workload.Zeusmp,
					Fraction: 0.4, SLO: loadgen.SLORelaxed,
					Spec: loadgen.Spec{Shape: loadgen.Ramp{StartRPS: 200, TargetRPS: 900}, Poisson: true}},
			},
		},
		Events: events,
		Seed:   7,
	}
}

func TestSynthRoundTrip(t *testing.T) {
	orig, err := Synth(synthSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"csv", "jsonl"} {
		var buf bytes.Buffer
		if err := orig.Write(&buf, format); err != nil {
			t.Fatalf("%s write: %v", format, err)
		}
		// The writer must be deterministic: two encodes are byte-identical.
		var buf2 bytes.Buffer
		if err := orig.Write(&buf2, format); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("%s encode not deterministic", format)
		}
		parsed, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s parse: %v", format, err)
		}
		if !reflect.DeepEqual(orig, parsed) {
			t.Fatalf("%s round trip diverged:\norig:   %+v\nparsed: %+v", format, orig, parsed)
		}
	}
}

func TestWriteUnknownFormat(t *testing.T) {
	tr, err := Synth(synthSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(&bytes.Buffer{}, "yaml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// fleetConfig builds a fleet over the given traffic, with everything else
// held fixed.
func fleetConfig(tr loadgen.Traffic, events loadgen.Scenario, workers int) fleet.Config {
	return fleet.Config{
		Servers: 2, CoresPerServer: 4,
		Traffic:       tr,
		Scenario:      events,
		BatchSpeedupB: 0.13, LSSlowdownB: 0.07,
		WindowRequests: 150, Seed: 7, Workers: workers,
	}
}

// TestReplayEquivalence is the round-trip determinism contract: synth →
// encode → parse → replay must be bit-identical to driving the fleet from
// the generative spec directly (same seed), and the replayed result must
// not depend on the worker count.
func TestReplayEquivalence(t *testing.T) {
	spec := synthSpec()
	direct, err := fleet.Run(fleetConfig(spec.Traffic, spec.Events, 0))
	if err != nil {
		t.Fatal(err)
	}

	synthed, err := Synth(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := synthed.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	traffic, err := parsed.Traffic()
	if err != nil {
		t.Fatal(err)
	}

	replayed, err := fleet.Run(fleetConfig(traffic, parsed.Events, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, replayed) {
		t.Fatalf("replay diverged from direct spec run:\ndirect: %+v\nreplay: %+v", direct, replayed)
	}

	for _, workers := range []int{1, 7} {
		again, err := fleet.Run(fleetConfig(traffic, parsed.Events, workers))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(replayed, again) {
			t.Fatalf("replay with %d workers diverged", workers)
		}
	}
}

// TestReplaySeedIndependentTimelines: a trace is already a realisation,
// so the traffic it produces is identical under any fleet seed.
func TestReplaySeedIndependentTimelines(t *testing.T) {
	tr, err := Synth(synthSpec())
	if err != nil {
		t.Fatal(err)
	}
	traffic, err := tr.Traffic()
	if err != nil {
		t.Fatal(err)
	}
	a, err := traffic.Timelines(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := traffic.Timelines(99)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("replayed timelines depend on the fleet seed")
	}
}

const validCSV = `#stretch-trace v1
#meta windows=2 window_sec=300
#client name=a service=web-search slo=standard fraction=0.5
#client name=b service=data-serving slo=relaxed fraction=0.5 batch=zeusmp
#event drain:1:0
window,client,rps
0,a,100
0,b,50.5
1,a,90
1,b,0
`

func TestParseValidCSV(t *testing.T) {
	tr, err := Parse(strings.NewReader(validCSV))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Windows != 2 || tr.WindowSec != 300 || len(tr.Clients) != 2 {
		t.Fatalf("parsed shape wrong: %+v", tr)
	}
	if tr.Clients[1].Batch != workload.Zeusmp || tr.Clients[1].SLO != loadgen.SLORelaxed {
		t.Fatalf("client metadata lost: %+v", tr.Clients[1])
	}
	if len(tr.Events.Events) != 1 {
		t.Fatalf("events lost: %+v", tr.Events)
	}
	if tr.Rates[0][1] != 90 || tr.Rates[1][0] != 50.5 {
		t.Fatalf("rates misplaced: %+v", tr.Rates)
	}
}

func TestParseStrictness(t *testing.T) {
	mut := func(from, to string) string { return strings.Replace(validCSV, from, to, 1) }
	cases := []struct {
		name, in, wantErr string
	}{
		{"empty", "", "empty input"},
		{"bad magic", mut("#stretch-trace v1", "#stretch-trace v9"), "line 1"},
		{"nan rate", mut("0,a,100", "0,a,NaN"), "line 7"},
		{"inf rate", mut("0,a,100", "0,a,+Inf"), "line 7"},
		{"negative rate", mut("0,a,100", "0,a,-4"), "line 7"},
		{"duplicate cell", mut("1,a,90", "0,a,90"), "line 9: duplicate rate"},
		{"window gap", strings.Replace(validCSV, "1,b,0\n", "", 1), `client "b" has 1 of 2 windows`},
		{"out of horizon", mut("1,a,90", "2,a,90"), "line 9: window 2 outside horizon"},
		{"undeclared client", mut("0,b,50.5", "0,z,50.5"), `line 8: rate row for undeclared client "z"`},
		{"duplicate client", mut("name=b", "name=a"), "line 4: duplicate client"},
		{"bad slo", mut("slo=relaxed", "slo=gold"), "line 4"},
		{"bad fraction", mut("fraction=0.5 batch", "fraction=1.5 batch"), "fraction 1.5 out of (0,1]"},
		{"fractions oversubscribed", mut("fraction=0.5\n", "fraction=0.9\n"), "sum to 1.4"},
		{"zero windows", mut("windows=2", "windows=0"), "line 2"},
		{"huge windows", mut("windows=2", "windows=99999999"), "line 2"},
		{"bad window_sec", mut("window_sec=300", "window_sec=0"), "line 2"},
		{"rows before header", mut("window,client,rps\n", ""), "line 6: rate row before"},
		{"client after rows", validCSV + "#client name=c service=x slo=standard fraction=0.1\n", "line 11: client declared after rate rows"},
		{"unknown directive", mut("#event", "#evt"), "line 5: unknown directive"},
		{"bad event", mut("drain:1:0", "drain:9:0"), "line 5"},
		{"surge unknown client", mut("drain:1:0", "surge:0-1:z:2"), "unknown client"},
		{"three fields", mut("0,a,100", "0,a,100,x"), "want 3 comma-separated fields"},
		{"no meta", mut("#meta windows=2 window_sec=300\n", ""), "client declared before trace header"},
	}
	for _, c := range cases {
		_, err := Parse(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

func TestParseJSONLStrictness(t *testing.T) {
	tr, err := Synth(synthSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	cases := []struct {
		name, in, wantErr string
	}{
		{"unknown field", `{"format":"stretch-trace","version":1,"windows":2,"window_sec":300,"x":1}`, "line 1"},
		{"wrong version", strings.Replace(buf.String(), `"version":1`, `"version":2`, 1), "line 1"},
		{"row without rps", lines[0] + "\n" + lines[1] + "\n" + `{"w":0,"c":"search"}`, "rate row without rps"},
		{"unrecognised", lines[0] + "\n" + `{}`, "line 2: unrecognised object"},
		{"truncated", strings.Join(lines[:len(lines)-1], "\n"), "windows"},
	}
	for _, c := range cases {
		_, err := Parse(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("testdata/definitely-not-here.trace"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestValidateRejectsCorruptTrace(t *testing.T) {
	mk := func() *Trace {
		tr, err := Synth(synthSpec())
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	bad := []func(*Trace){
		func(tr *Trace) { tr.Windows = 0 },
		func(tr *Trace) { tr.WindowSec = -1 },
		func(tr *Trace) { tr.Clients = nil },
		func(tr *Trace) { tr.Clients[0].Name = "with space" },
		func(tr *Trace) { tr.Clients[0].Service = "" },
		func(tr *Trace) { tr.Clients[0].Fraction = 2 },
		func(tr *Trace) { tr.Clients[0].SLO = loadgen.SLOClass(9) },
		func(tr *Trace) { tr.Rates = tr.Rates[:1] },
		func(tr *Trace) { tr.Rates[0] = tr.Rates[0][:3] },
		func(tr *Trace) { tr.Rates[1][2] = -5 },
	}
	for i, mutate := range bad {
		tr := mk()
		mutate(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// BenchmarkParse parses a 4-client × 65,536-window CSV trace — 262,144
// rate cells — and reports the cost per cell.
func BenchmarkParse(b *testing.B) {
	const windows = 1 << 16
	var clients []loadgen.Client
	for _, svc := range []string{workload.WebSearch, workload.DataServing, workload.WebServing, workload.MediaStreaming} {
		clients = append(clients, loadgen.Client{
			Name: svc, Service: svc, Fraction: 0.25,
			Spec: loadgen.Spec{Shape: loadgen.Constant{Rate: 1000}, Poisson: true},
		})
	}
	tr, err := Synth(SynthSpec{
		Traffic: loadgen.Traffic{Windows: windows, WindowSec: 300, Clients: clients},
		Seed:    1,
	})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	cells := len(clients) * windows
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cells), "ns/cell")
}

// Package tracefile is the simulator's recorded-traffic substrate: a
// versioned on-disk trace format (CSV or JSONL) carrying per-window,
// per-client arrival rates plus the client metadata the fleet needs to
// replay them — service, batch pairing, core fraction, SLO class — and
// optional scenario annotations (drains, restores, perf faults, surges)
// in the loadgen event grammar.
//
// One format serves two sources. Recorded production traffic is written
// by whatever tooling watches the real fleet; synthetic traffic comes
// from Synth, which materialises a loadgen.Traffic (shapes, arrival
// processes, cohorts) through the same seed-derived streams the fleet
// itself would use, so a synthesised trace replays bit-identically to
// driving the fleet from the spec directly. Either way the parser is the
// single trust boundary: strict, line-numbered, and total — rates must be
// finite and non-negative, every (window, client) cell must appear
// exactly once, and gaps or undeclared clients are errors, never guesses.
package tracefile

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"stretch/internal/loadgen"
)

// FormatVersion is the trace format generation this package reads and
// writes. Bump it only with a migration path for old files.
const FormatVersion = 1

// MaxWindows bounds the window horizon a trace may declare, so a hostile
// or corrupt file cannot force a giant allocation before validation.
const MaxWindows = 1 << 22

// MaxCells bounds windows × clients — the rate matrix a parse may
// allocate. Each cell costs one float64 rate: 128 MiB at the limit.
const MaxCells = 1 << 24

// csvMagic is the first line of every CSV trace.
const csvMagic = "#stretch-trace v1"

// Client is the per-client metadata a trace carries — the fields of
// loadgen.Client minus the arrival spec, which the trace's rate rows
// replace.
type Client struct {
	// Name labels the client (unique within the trace; no whitespace or
	// commas, so names survive the CSV encoding untouched).
	Name string
	// Service is the latency-sensitive workload serving the client.
	Service string
	// Batch names the colocated batch workload; empty means the fleet's
	// default pairing.
	Batch string
	// Fraction is the client's share of the fleet's cores.
	Fraction float64
	// SLO is the client's QoS-target class.
	SLO loadgen.SLOClass
}

// Trace is a parsed (or synthesised) traffic recording.
type Trace struct {
	// Windows is the horizon length; WindowSec the seconds per window.
	Windows   int
	WindowSec float64
	// Clients declares the traffic sources, in file order.
	Clients []Client
	// Events carries optional scenario annotations recorded with the
	// traffic (drains, perf faults, surges).
	Events loadgen.Scenario
	// Rates[i][w] is client i's fleet-wide arrival rate (requests/sec)
	// during window w; len(Rates) == len(Clients), len(Rates[i]) == Windows.
	Rates [][]float64
}

// Hours is the trace horizon in hours.
func (t *Trace) Hours() float64 { return float64(t.Windows) * t.WindowSec / 3600 }

func validName(s string) bool {
	return s != "" && !strings.ContainsAny(s, " \t\n\r,=\"")
}

// Validate checks the trace's internal consistency: positive horizon,
// well-formed unique clients, complete finite rate matrix, and events
// that fit the horizon and client set (server indices are bounded by the
// fleet at replay time, not here — a trace does not know the fleet size).
func (t *Trace) Validate() error {
	if t.Windows <= 0 || t.Windows > MaxWindows {
		return fmt.Errorf("tracefile: %d windows out of [1,%d]", t.Windows, MaxWindows)
	}
	if !(t.WindowSec > 0) || math.IsInf(t.WindowSec, 0) {
		return fmt.Errorf("tracefile: window_sec %v must be positive and finite", t.WindowSec)
	}
	if len(t.Clients) == 0 {
		return fmt.Errorf("tracefile: no clients declared")
	}
	seen := make(map[string]bool, len(t.Clients))
	fracSum := 0.0
	for i, c := range t.Clients {
		if !validName(c.Name) {
			return fmt.Errorf("tracefile: client %d name %q (need non-empty, no spaces/commas)", i, c.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("tracefile: duplicate client %q", c.Name)
		}
		seen[c.Name] = true
		if !validName(c.Service) {
			return fmt.Errorf("tracefile: client %q service %q invalid", c.Name, c.Service)
		}
		if c.Batch != "" && !validName(c.Batch) {
			return fmt.Errorf("tracefile: client %q batch %q invalid", c.Name, c.Batch)
		}
		if !(c.Fraction > 0) || c.Fraction > 1 {
			return fmt.Errorf("tracefile: client %q fraction %v out of (0,1]", c.Name, c.Fraction)
		}
		switch c.SLO {
		case loadgen.SLOStandard, loadgen.SLOStrict, loadgen.SLORelaxed:
		default:
			return fmt.Errorf("tracefile: client %q has unknown SLO class %d", c.Name, int(c.SLO))
		}
		fracSum += c.Fraction
	}
	if fracSum > 1+1e-9 {
		return fmt.Errorf("tracefile: client fractions sum to %v > 1", fracSum)
	}
	if len(t.Rates) != len(t.Clients) {
		return fmt.Errorf("tracefile: %d rate rows for %d clients", len(t.Rates), len(t.Clients))
	}
	for i, rates := range t.Rates {
		if len(rates) != t.Windows {
			return fmt.Errorf("tracefile: client %q has %d windows, trace declares %d",
				t.Clients[i].Name, len(rates), t.Windows)
		}
		for w, r := range rates {
			if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
				return fmt.Errorf("tracefile: client %q window %d rate %v must be finite and non-negative",
					t.Clients[i].Name, w, r)
			}
		}
	}
	// Server-indexed events are range-checked against the replaying
	// fleet's size by fleet.Config.Validate; MaxInt defers that here.
	return t.Events.Validate(t.Windows, math.MaxInt, t.loadgenClients())
}

func (t *Trace) loadgenClients() []loadgen.Client {
	out := make([]loadgen.Client, len(t.Clients))
	for i, c := range t.Clients {
		out[i] = loadgen.Client{
			Name: c.Name, Service: c.Service, Batch: c.Batch,
			Fraction: c.Fraction, SLO: c.SLO,
			Spec: loadgen.Spec{Process: loadgen.ArrivalExact},
		}
	}
	return out
}

// Traffic converts the trace into the fleet's traffic source: each client
// becomes a loadgen.Client whose shape replays the recorded rates with an
// exact arrival process. The rates are already a realisation, so replay
// consumes no random draws for traffic — any fleet seed reproduces the
// same timelines, and the engine's per-core streams stay seed-derived
// exactly as for spec-driven runs.
func (t *Trace) Traffic() (loadgen.Traffic, error) {
	if err := t.Validate(); err != nil {
		return loadgen.Traffic{}, err
	}
	clients := t.loadgenClients()
	for i := range clients {
		clients[i].Spec.Shape = loadgen.Replay{Rates: t.Rates[i]}
	}
	return loadgen.Traffic{Clients: clients, Windows: t.Windows, WindowSec: t.WindowSec}, nil
}

// SynthSpec drives the deterministic synthesizer.
type SynthSpec struct {
	// Traffic is the generative spec: shapes, arrival processes, cohort
	// members — anything loadgen can express.
	Traffic loadgen.Traffic
	// Events are scenario annotations to embed in the trace.
	Events loadgen.Scenario
	// Seed selects the realisation. Synthesising with seed s and
	// replaying the trace under a fleet with the same seed is
	// bit-identical to driving that fleet from Traffic directly.
	Seed uint64
}

// Synth materialises the spec's per-client timelines through the same
// seed-derived streams the fleet uses and packages them as a Trace.
func Synth(spec SynthSpec) (*Trace, error) {
	timelines, err := spec.Traffic.Timelines(spec.Seed)
	if err != nil {
		return nil, err
	}
	t := &Trace{
		Windows:   spec.Traffic.Windows,
		WindowSec: spec.Traffic.WindowSec,
		Clients:   make([]Client, len(spec.Traffic.Clients)),
		Events:    spec.Events,
		Rates:     make([][]float64, len(spec.Traffic.Clients)),
	}
	for i, c := range spec.Traffic.Clients {
		t.Clients[i] = Client{
			Name: c.Name, Service: c.Service, Batch: c.Batch,
			Fraction: c.Fraction, SLO: c.SLO,
		}
		t.Rates[i] = timelines[c.Name]
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("tracefile: synthesised trace invalid: %w", err)
	}
	return t, nil
}

// fnum renders a float with the shortest representation that parses back
// to the identical bits, so write → parse round-trips exactly.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteCSV encodes the trace in the v1 CSV dialect: a magic line, #meta /
// #client / #event directives, a column header, then window-major rows.
func (t *Trace) WriteCSV(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s\n", csvMagic)
	fmt.Fprintf(bw, "#meta windows=%d window_sec=%s\n", t.Windows, fnum(t.WindowSec))
	for _, c := range t.Clients {
		fmt.Fprintf(bw, "#client name=%s service=%s slo=%s fraction=%s", c.Name, c.Service, c.SLO, fnum(c.Fraction))
		if c.Batch != "" {
			fmt.Fprintf(bw, " batch=%s", c.Batch)
		}
		fmt.Fprintln(bw)
	}
	for _, e := range t.Events.Events {
		fmt.Fprintf(bw, "#event %s\n", e)
	}
	fmt.Fprintln(bw, "window,client,rps")
	for w := 0; w < t.Windows; w++ {
		for i, c := range t.Clients {
			fmt.Fprintf(bw, "%d,%s,%s\n", w, c.Name, fnum(t.Rates[i][w]))
		}
	}
	return bw.Flush()
}

// jsonHeader, jsonClient and jsonLine are the JSONL wire types. encoding/json
// emits floats in their shortest round-trip form, matching the CSV dialect.
type jsonClient struct {
	Name     string  `json:"name"`
	Service  string  `json:"service"`
	Batch    string  `json:"batch,omitempty"`
	Fraction float64 `json:"fraction"`
	SLO      string  `json:"slo"`
}

type jsonLine struct {
	// Header line.
	Format    string  `json:"format,omitempty"`
	Version   int     `json:"version,omitempty"`
	Windows   int     `json:"windows,omitempty"`
	WindowSec float64 `json:"window_sec,omitempty"`
	// Client declaration line.
	Client *jsonClient `json:"client,omitempty"`
	// Event annotation line.
	Event string `json:"event,omitempty"`
	// Rate row.
	W   *int     `json:"w,omitempty"`
	C   string   `json:"c,omitempty"`
	RPS *float64 `json:"rps,omitempty"`
}

// WriteJSONL encodes the trace as JSON lines: one header object, one
// object per client, one per event, then one per (window, client) rate in
// window-major order.
func (t *Trace) WriteJSONL(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonLine{Format: "stretch-trace", Version: FormatVersion,
		Windows: t.Windows, WindowSec: t.WindowSec}); err != nil {
		return err
	}
	for _, c := range t.Clients {
		jc := jsonClient{Name: c.Name, Service: c.Service, Batch: c.Batch,
			Fraction: c.Fraction, SLO: c.SLO.String()}
		if err := enc.Encode(jsonLine{Client: &jc}); err != nil {
			return err
		}
	}
	for _, e := range t.Events.Events {
		if err := enc.Encode(jsonLine{Event: e.String()}); err != nil {
			return err
		}
	}
	for w := 0; w < t.Windows; w++ {
		for i, c := range t.Clients {
			w, rps := w, t.Rates[i][w]
			if err := enc.Encode(jsonLine{W: &w, C: c.Name, RPS: &rps}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Write encodes the trace in the named format: "csv" or "jsonl".
func (t *Trace) Write(w io.Writer, format string) error {
	switch format {
	case "csv":
		return t.WriteCSV(w)
	case "jsonl":
		return t.WriteJSONL(w)
	default:
		return fmt.Errorf("tracefile: unknown format %q (csv|jsonl)", format)
	}
}

// parser accumulates state shared by both dialects and enforces the
// structural rules: header before clients, clients before rates, every
// cell exactly once, no gaps. A declared client's rate row starts all NaN;
// rate rejects NaN input, so a NaN cell is one no row has set yet.
type parser struct {
	t       *Trace
	index   map[string]int // client name → index
	hasMeta bool
	inRates bool
}

func newParser() *parser {
	return &parser{t: &Trace{}, index: make(map[string]int)}
}

func (p *parser) meta(line int, windows int, windowSec float64) error {
	if p.hasMeta {
		return fmt.Errorf("line %d: duplicate trace header", line)
	}
	if windows <= 0 || windows > MaxWindows {
		return fmt.Errorf("line %d: windows %d out of [1,%d]", line, windows, MaxWindows)
	}
	if !(windowSec > 0) || math.IsInf(windowSec, 0) || math.IsNaN(windowSec) {
		return fmt.Errorf("line %d: window_sec %v must be positive and finite", line, windowSec)
	}
	p.hasMeta = true
	p.t.Windows = windows
	p.t.WindowSec = windowSec
	return nil
}

func (p *parser) client(line int, c Client) error {
	if !p.hasMeta {
		return fmt.Errorf("line %d: client declared before trace header", line)
	}
	if p.inRates {
		return fmt.Errorf("line %d: client declared after rate rows", line)
	}
	if _, dup := p.index[c.Name]; dup {
		return fmt.Errorf("line %d: duplicate client %q", line, c.Name)
	}
	if !validName(c.Name) {
		return fmt.Errorf("line %d: client name %q (need non-empty, no spaces/commas)", line, c.Name)
	}
	if (len(p.t.Clients)+1)*p.t.Windows > MaxCells {
		return fmt.Errorf("line %d: trace exceeds %d rate cells", line, MaxCells)
	}
	p.index[c.Name] = len(p.t.Clients)
	p.t.Clients = append(p.t.Clients, c)
	row := make([]float64, p.t.Windows)
	for w := range row {
		row[w] = math.NaN()
	}
	p.t.Rates = append(p.t.Rates, row)
	return nil
}

func (p *parser) event(line int, s string) error {
	if !p.hasMeta {
		return fmt.Errorf("line %d: event declared before trace header", line)
	}
	if p.inRates {
		return fmt.Errorf("line %d: event declared after rate rows", line)
	}
	sc, err := loadgen.ParseEvents(s)
	if err != nil {
		return fmt.Errorf("line %d: %v", line, err)
	}
	// Window bounds are knowable here (the header precedes events), so
	// report them with the offending line; client and factor semantics
	// wait for finish, when the full client set is known.
	for _, e := range sc.Events {
		switch e.Kind {
		case loadgen.EventDrain, loadgen.EventRestore:
			if e.Window < 0 || e.Window >= p.t.Windows {
				return fmt.Errorf("line %d: %s window %d outside horizon [0,%d)", line, e.Kind, e.Window, p.t.Windows)
			}
		case loadgen.EventSurge:
			if e.Window < 0 || e.Until > p.t.Windows || e.Window >= e.Until {
				return fmt.Errorf("line %d: surge range [%d,%d) outside horizon %d", line, e.Window, e.Until, p.t.Windows)
			}
		}
	}
	p.t.Events.Events = append(p.t.Events.Events, sc.Events...)
	return nil
}

// rate records one rate row. The client name comes as bytes so the CSV
// path can pass a slice of the scanned line: the lookup converts it
// without allocating, and only an error message copies it.
func (p *parser) rate(line, w int, client []byte, rps float64) error {
	if !p.hasMeta {
		return fmt.Errorf("line %d: rate row before trace header", line)
	}
	p.inRates = true
	i, ok := p.index[string(client)]
	if !ok {
		return fmt.Errorf("line %d: rate row for undeclared client %q", line, string(client))
	}
	if w < 0 || w >= p.t.Windows {
		return fmt.Errorf("line %d: window %d outside horizon [0,%d)", line, w, p.t.Windows)
	}
	if math.IsNaN(rps) || math.IsInf(rps, 0) || rps < 0 {
		return fmt.Errorf("line %d: rate %v must be finite and non-negative", line, rps)
	}
	if !math.IsNaN(p.t.Rates[i][w]) {
		return fmt.Errorf("line %d: duplicate rate for window %d client %q", line, w, string(client))
	}
	p.t.Rates[i][w] = rps
	return nil
}

// finish checks completeness — every client has a rate for every window —
// then runs full semantic validation.
func (p *parser) finish() (*Trace, error) {
	if !p.hasMeta {
		return nil, fmt.Errorf("missing trace header")
	}
	for i, c := range p.t.Clients {
		got := p.t.Windows
		var missing []int
		for w, r := range p.t.Rates[i] {
			if math.IsNaN(r) {
				got--
				if len(missing) < 5 {
					missing = append(missing, w)
				}
			}
		}
		if got != p.t.Windows {
			return nil, fmt.Errorf("client %q has %d of %d windows (gap at %v)",
				c.Name, got, p.t.Windows, missing)
		}
	}
	if err := p.t.Validate(); err != nil {
		return nil, strip(err)
	}
	return p.t, nil
}

// strip removes the package prefix from an error about to be re-wrapped.
func strip(err error) error {
	return fmt.Errorf("%s", strings.TrimPrefix(err.Error(), "tracefile: "))
}

// Parse reads a trace in either dialect, sniffing JSONL by a leading '{'.
// Errors carry 1-based line numbers.
func Parse(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	first, err := br.Peek(1)
	if err != nil {
		return nil, fmt.Errorf("tracefile: empty input")
	}
	var t *Trace
	if first[0] == '{' {
		t, err = parseJSONL(br)
	} else {
		t, err = parseCSV(br)
	}
	if err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	return t, nil
}

// Load reads and parses the trace file at path.
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	defer f.Close()
	t, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, strip(err))
	}
	return t, nil
}

// kvs parses "k=v k=v …" directive fields in order.
func kvs(s string) ([][2]string, error) {
	var out [][2]string
	for _, f := range strings.Fields(s) {
		k, v, ok := strings.Cut(f, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("malformed field %q (want key=value)", f)
		}
		out = append(out, [2]string{k, v})
	}
	return out, nil
}

func parseCSV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	p := newParser()
	line := 0
	sawHeaderRow := false
	for sc.Scan() {
		line++
		// Lines stay in the scanner's buffer: rate rows are the bulk of a
		// large trace, and only the O(clients) directive lines and error
		// messages copy theirs into strings.
		b := bytes.TrimRight(sc.Bytes(), "\r")
		switch {
		case line == 1:
			if string(b) != csvMagic {
				return nil, fmt.Errorf("line 1: not a stretch trace (want %q, got %q)", csvMagic, string(b))
			}
		case len(b) == 0:
			// Blank lines are allowed anywhere after the magic.
		case b[0] == '#':
			if err := p.directive(line, string(b)); err != nil {
				return nil, err
			}
		case string(b) == "window,client,rps":
			if sawHeaderRow {
				return nil, fmt.Errorf("line %d: duplicate column header", line)
			}
			sawHeaderRow = true
		default:
			if !sawHeaderRow {
				return nil, fmt.Errorf("line %d: rate row before %q header", line, "window,client,rps")
			}
			// The three fields are cut in place and parsed through
			// non-escaping conversions: a rate row allocates nothing.
			ws, rest, ok1 := bytes.Cut(b, comma)
			client, rs, ok2 := bytes.Cut(rest, comma)
			if !ok1 || !ok2 || bytes.IndexByte(rs, ',') >= 0 {
				return nil, fmt.Errorf("line %d: want 3 comma-separated fields, got %d",
					line, bytes.Count(b, comma)+1)
			}
			w, err := strconv.Atoi(string(ws))
			if err != nil {
				return nil, fmt.Errorf("line %d: window %q not an integer", line, string(ws))
			}
			rps, err := strconv.ParseFloat(string(rs), 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: rate %q not a number", line, string(rs))
			}
			if err := p.rate(line, w, client, rps); err != nil {
				return nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return p.finish()
}

// comma separates a CSV rate row's fields.
var comma = []byte{','}

// directive parses one CSV '#' line: the #meta header, a #client
// declaration or an #event annotation.
func (p *parser) directive(line int, text string) error {
	switch {
	case strings.HasPrefix(text, "#meta "):
		var windows int
		var windowSec float64
		var haveW, haveS bool
		fields, err := kvs(text[len("#meta "):])
		if err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		for _, kv := range fields {
			switch kv[0] {
			case "windows":
				n, err := strconv.Atoi(kv[1])
				if err != nil {
					return fmt.Errorf("line %d: windows %q not an integer", line, kv[1])
				}
				windows, haveW = n, true
			case "window_sec":
				v, err := strconv.ParseFloat(kv[1], 64)
				if err != nil {
					return fmt.Errorf("line %d: window_sec %q not a number", line, kv[1])
				}
				windowSec, haveS = v, true
			default:
				return fmt.Errorf("line %d: unknown meta field %q", line, kv[0])
			}
		}
		if !haveW || !haveS {
			return fmt.Errorf("line %d: meta needs windows= and window_sec=", line)
		}
		return p.meta(line, windows, windowSec)
	case strings.HasPrefix(text, "#client "):
		fields, err := kvs(text[len("#client "):])
		if err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		var c Client
		for _, kv := range fields {
			switch kv[0] {
			case "name":
				c.Name = kv[1]
			case "service":
				c.Service = kv[1]
			case "batch":
				c.Batch = kv[1]
			case "slo":
				slo, err := loadgen.ParseSLOClass(kv[1])
				if err != nil {
					return fmt.Errorf("line %d: %v", line, err)
				}
				c.SLO = slo
			case "fraction":
				v, err := strconv.ParseFloat(kv[1], 64)
				if err != nil {
					return fmt.Errorf("line %d: fraction %q not a number", line, kv[1])
				}
				c.Fraction = v
			default:
				return fmt.Errorf("line %d: unknown client field %q", line, kv[0])
			}
		}
		return p.client(line, c)
	case strings.HasPrefix(text, "#event "):
		return p.event(line, strings.TrimSpace(text[len("#event "):]))
	default:
		return fmt.Errorf("line %d: unknown directive %q", line, text)
	}
}

func parseJSONL(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	p := newParser()
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		dec := json.NewDecoder(bytes.NewReader([]byte(text)))
		dec.DisallowUnknownFields()
		var jl jsonLine
		if err := dec.Decode(&jl); err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		switch {
		case jl.Format != "":
			if jl.Format != "stretch-trace" || jl.Version != FormatVersion {
				return nil, fmt.Errorf("line %d: not a stretch-trace v%d header (format %q version %d)",
					line, FormatVersion, jl.Format, jl.Version)
			}
			if err := p.meta(line, jl.Windows, jl.WindowSec); err != nil {
				return nil, err
			}
		case jl.Client != nil:
			slo, err := loadgen.ParseSLOClass(jl.Client.SLO)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			c := Client{Name: jl.Client.Name, Service: jl.Client.Service,
				Batch: jl.Client.Batch, Fraction: jl.Client.Fraction, SLO: slo}
			if err := p.client(line, c); err != nil {
				return nil, err
			}
		case jl.Event != "":
			if err := p.event(line, jl.Event); err != nil {
				return nil, err
			}
		case jl.W != nil:
			if jl.RPS == nil {
				return nil, fmt.Errorf("line %d: rate row without rps", line)
			}
			if err := p.rate(line, *jl.W, []byte(jl.C), *jl.RPS); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("line %d: unrecognised object %s", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return p.finish()
}

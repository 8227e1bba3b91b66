// stretchsim synth: materialise a named generative traffic spec into a
// trace file, so synthetic and recorded traffic replay through the same
// path. The synthesizer reuses the -fleet named specs, optionally
// swapping every client's arrival process (e.g. gamma:1.5 for
// trace-like overdispersion) and expanding each client into a cohort of
// Zipf-weighted, phase-staggered members.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"stretch/internal/loadgen"
	"stretch/internal/tracefile"
)

// synthParams mirrors the synth flag set.
type synthParams struct {
	spec           string
	servers, cores int
	hours          float64
	wph            int
	seed           uint64
	arrival        string
	cohorts        string
	events         string
	format         string
	out            string
}

// parseCohorts parses the -cohorts value: "N[:skew[:phase]]".
func parseCohorts(s string) (loadgen.CohortSpec, error) {
	parts := strings.Split(s, ":")
	if len(parts) > 3 {
		return loadgen.CohortSpec{}, fmt.Errorf("cohorts %q wants N[:skew[:phase]]", s)
	}
	var spec loadgen.CohortSpec
	n, err := strconv.Atoi(parts[0])
	if err != nil {
		return loadgen.CohortSpec{}, fmt.Errorf("cohorts members %q not an integer", parts[0])
	}
	spec.Members = n
	if len(parts) > 1 {
		skew, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return loadgen.CohortSpec{}, fmt.Errorf("cohorts skew %q not a number", parts[1])
		}
		spec.Skew = skew
	}
	if len(parts) > 2 {
		phase, err := strconv.Atoi(parts[2])
		if err != nil {
			return loadgen.CohortSpec{}, fmt.Errorf("cohorts phase %q not an integer", parts[2])
		}
		spec.PhaseWindows = phase
	}
	return spec, nil
}

// buildSynthTrace materialises the synth parameters into a trace, pure of
// any I/O so the golden tests can drive it directly. It also rejects an
// unknown -format, so a typo never reaches os.Create and truncates the
// -o file.
func buildSynthTrace(p synthParams) (*tracefile.Trace, error) {
	if p.format != "csv" && p.format != "jsonl" {
		return nil, fmt.Errorf("unknown format %q (csv|jsonl)", p.format)
	}
	traffic, scenario, err := namedSpecTraffic(p.spec, p.servers, p.cores, p.hours, p.wph, p.seed, p.events)
	if err != nil {
		return nil, err
	}

	if p.arrival != "" {
		proc, cv, err := loadgen.ParseArrival(p.arrival)
		if err != nil {
			return nil, err
		}
		for i := range traffic.Clients {
			c := &traffic.Clients[i]
			c.Spec.Poisson = false
			c.Spec.Process = proc
			c.Spec.CV = cv
		}
	}

	if p.cohorts != "" {
		cspec, err := parseCohorts(p.cohorts)
		if err != nil {
			return nil, err
		}
		expanded := make([]loadgen.Client, 0, len(traffic.Clients)*cspec.Members)
		members := make(map[string][]string, len(traffic.Clients))
		for _, c := range traffic.Clients {
			ms, err := loadgen.ExpandCohort(c, cspec)
			if err != nil {
				return nil, err
			}
			names := make([]string, len(ms))
			for i, m := range ms {
				names[i] = m.Name
			}
			members[c.Name] = names
			expanded = append(expanded, ms...)
		}
		traffic.Clients = expanded
		// Surge events target clients by name; a surge on an expanded
		// client becomes one per member (the multiplicative factor is
		// share-independent, so per-member surges are equivalent).
		var evs []loadgen.Event
		for _, e := range scenario.Events {
			if e.Kind == loadgen.EventSurge && len(members[e.Client]) > 0 {
				for _, name := range members[e.Client] {
					m := e
					m.Client = name
					evs = append(evs, m)
				}
				continue
			}
			evs = append(evs, e)
		}
		scenario.Events = evs
	}

	return tracefile.Synth(tracefile.SynthSpec{
		Traffic: traffic,
		Events:  scenario,
		Seed:    p.seed,
	})
}

// runSynth is the synth subcommand entry point.
func runSynth(args []string) {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	var p synthParams
	fs.StringVar(&p.spec, "spec", "mixed", "generative traffic spec (websearch|video|mixed|failover)")
	fs.IntVar(&p.servers, "servers", 64, "fleet size the rates are anchored to: servers")
	fs.IntVar(&p.cores, "cores", 16, "fleet size the rates are anchored to: SMT cores per server")
	fs.Float64Var(&p.hours, "hours", 168, "trace horizon in hours")
	fs.IntVar(&p.wph, "windows-per-hour", 4, "trace windows per hour")
	fs.Uint64Var(&p.seed, "seed", 1, "realisation seed (replaying under the same fleet seed is bit-identical to simulating the spec)")
	fs.StringVar(&p.arrival, "arrival", "", "override every client's arrival process: exact|poisson|gamma:<cv>|weibull:<cv> (empty keeps the spec's defaults)")
	fs.StringVar(&p.cohorts, "cohorts", "", "expand each client into a cohort: N[:skew[:phase-windows]] (Zipf rate shares, staggered shapes)")
	fs.StringVar(&p.events, "events", "", "scenario annotations to embed, e.g. \"drain:24:0,surge:30-40:video:1.8\" (failover spec has a built-in default)")
	fs.StringVar(&p.format, "format", "csv", "output format (csv|jsonl)")
	fs.StringVar(&p.out, "o", "", "output path (empty writes to stdout)")
	fs.Parse(args)

	t, err := buildSynthTrace(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stretchsim: synth: %v\n", err)
		os.Exit(2)
	}
	w := os.Stdout
	if p.out != "" {
		f, err := os.Create(p.out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stretchsim: synth: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := t.Write(w, p.format); err != nil {
		fmt.Fprintf(os.Stderr, "stretchsim: synth: %v\n", err)
		os.Exit(1)
	}
	if p.out != "" {
		fmt.Printf("wrote %s: %d windows × %d clients, %.0fh (%s)\n",
			p.out, t.Windows, len(t.Clients), t.Hours(), p.format)
	}
}

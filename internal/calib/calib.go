// Package calib derives the fleet layer's per-colocation performance
// tables from the cycle-level core model, closing the gap between the two
// layers of the reproduction: §V shows that Stretch's B-mode batch speedup
// and LS slowdown are pair-specific — they vary widely across
// (service, batch) colocations — so a fleet that credits batch throughput
// with one flat scalar per mode is faking exactly the numbers the
// cycle-level layer computes.
//
// A calibration run executes the colocation grid once per core
// configuration (equal partitioning, the B-mode skew, the Q-mode skew)
// under a sampling.Spec, through a fresh colocate.Lab, and distils each
// (service, batch, mode) cell into the two numbers the fleet engine
// consumes: the LS thread's slowdown and the batch thread's speedup, both
// relative to the same pair under equal partitioning. Equal-partition
// cells are identically zero by construction; solo full-core IPCs ride
// along for solo-normalised reporting.
//
// Tables are content-addressed: Inputs.Fingerprint hashes everything a
// table is a function of — the workload profiles, the three core
// configurations, the service queueing parameters and the sampling spec —
// so an on-disk JSON cache (Cached) can tell a stale table from a current
// one without re-running the cycle-level model, and the committed default
// table (Default) lets tests and CI consume calibrated numbers without
// ever paying cycle-level cost.
//
// Invariant: Build is a pure function of its Inputs. The grid runs in
// parallel, but every cell derives its trace seeds from the spec alone, so
// the same Inputs produce the same Table bit-for-bit at any GOMAXPROCS.
package calib

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"stretch/internal/colocate"
	"stretch/internal/core"
	"stretch/internal/sampling"
	"stretch/internal/workload"
)

// Headline Stretch partition points calibrated by default: the LS thread's
// ROB entries out of 192 in B-mode (56-136) and Q-mode (136-56), matching
// the configurations evaluated throughout §VI.
const (
	DefaultBSkew = 56
	DefaultQSkew = 136
)

// fingerprintVersion is baked into every fingerprint; bump it when the
// meaning of a table changes (new fields, different normalisation) so
// stale caches can never be mistaken for current ones.
const fingerprintVersion = 1

// Cell is the calibrated performance delta of one (service, batch, mode)
// colocation, relative to the same pair under equal partitioning.
type Cell struct {
	// LSSlowdown is the LS thread's performance loss: 1 − IPC/IPC_equal.
	// Positive means the mode costs the service performance (B-mode);
	// negative means it gains (Q-mode, which widens the LS window).
	LSSlowdown float64 `json:"ls_slowdown"`
	// BatchSpeedup is the batch thread's throughput delta:
	// IPC/IPC_equal − 1. Positive in B-mode, negative in Q-mode.
	BatchSpeedup float64 `json:"batch_speedup"`
}

// PairPerf holds one (service, batch) pair's calibrated cells for the two
// engaged modes; the equal-partitioning cell is identically zero by
// construction. The equal-partition IPCs the deltas are relative to ride
// along for reporting and sanity checks.
type PairPerf struct {
	B Cell `json:"b"`
	Q Cell `json:"q"`
	// EqualLSIPC and EqualBatchIPC are the equal-partitioning baseline
	// IPCs of the two hardware threads.
	EqualLSIPC    float64 `json:"equal_ls_ipc"`
	EqualBatchIPC float64 `json:"equal_batch_ipc"`
}

// Inputs pins everything a calibration table is a function of.
type Inputs struct {
	// Services and Batches name the LS × batch grid to calibrate.
	Services []string `json:"services"`
	Batches  []string `json:"batches"`
	// BSkew and QSkew are the LS thread's ROB entries in B- and Q-mode.
	BSkew int `json:"b_skew"`
	QSkew int `json:"q_skew"`
	// Spec is the sampled-measurement budget per cell.
	Spec sampling.Spec `json:"spec"`
}

// DefaultInputs is the committed default table's coverage: the full
// catalogue — every latency-sensitive service against every batch
// benchmark — at the headline skews under the standard sampling spec.
func DefaultInputs() Inputs {
	return Inputs{
		Services: workload.ServiceNames(),
		Batches:  workload.BatchNames(),
		BSkew:    DefaultBSkew,
		QSkew:    DefaultQSkew,
		Spec:     sampling.Standard(),
	}
}

// Validate rejects inputs the cycle-level model could not run.
func (in Inputs) Validate() error {
	if len(in.Services) == 0 || len(in.Batches) == 0 {
		return fmt.Errorf("calib: empty service or batch list")
	}
	svcs := workload.Services()
	for _, s := range in.Services {
		if _, ok := svcs[s]; !ok {
			return fmt.Errorf("calib: unknown service %q", s)
		}
	}
	batches := workload.BatchProfiles()
	for _, b := range in.Batches {
		if _, ok := batches[b]; !ok {
			return fmt.Errorf("calib: unknown batch workload %q", b)
		}
	}
	cfg := core.Default()
	if err := cfg.SetSkew(in.BSkew); err != nil {
		return fmt.Errorf("calib: B skew: %w", err)
	}
	if err := cfg.SetSkew(in.QSkew); err != nil {
		return fmt.Errorf("calib: Q skew: %w", err)
	}
	if in.Spec.Samples <= 0 || in.Spec.Measure == 0 {
		return fmt.Errorf("calib: empty sampling spec")
	}
	return nil
}

// Fingerprint content-hashes the inputs and everything they resolve to:
// the named workloads' full profiles and service parameters, the three
// core configurations the skews expand to, and the sampling spec. Two
// Inputs with the same fingerprint build bit-identical tables; any change
// to a profile, a core parameter or the spec changes the fingerprint.
func (in Inputs) Fingerprint() (string, error) {
	if err := in.Validate(); err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "calib-v%d\n", fingerprintVersion)
	fmt.Fprintf(h, "spec %+v\n", in.Spec)
	for _, cfg := range []core.Config{
		colocate.BaselineConfig(), colocate.SkewConfig(in.BSkew), colocate.SkewConfig(in.QSkew),
		core.Solo(),
	} {
		fmt.Fprintf(h, "config %+v\n", cfg)
	}
	svcs := workload.Services()
	services := append([]string(nil), in.Services...)
	sort.Strings(services)
	for _, s := range services {
		fmt.Fprintf(h, "service %s %+v\n", s, svcs[s])
	}
	batches := append([]string(nil), in.Batches...)
	sort.Strings(batches)
	all := workload.BatchProfiles()
	for _, b := range batches {
		fmt.Fprintf(h, "batch %s %+v\n", b, all[b])
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Table maps every calibrated (service, batch) pair to its per-mode
// performance deltas. Tables are immutable once built; concurrent lookups
// are safe.
type Table struct {
	// Hash is the fingerprint of the inputs the table was built from.
	Hash string `json:"hash"`
	// Inputs echoes what was calibrated.
	Inputs Inputs `json:"inputs"`
	// Pairs indexes the calibrated cells as Pairs[service][batch].
	Pairs map[string]map[string]PairPerf `json:"pairs"`
	// SoloIPC is each workload's solo full-core IPC — the normalisation
	// baseline for solo-relative reporting (colocate.Slowdown).
	SoloIPC map[string]float64 `json:"solo_ipc"`
}

// Lookup returns the calibrated cell for a (service, batch, mode)
// colocation. The equal-partitioning mode returns a zero cell for any
// calibrated pair. The second result reports whether the pair is in the
// table.
func (t *Table) Lookup(service, batch string, mode core.Mode) (Cell, bool) {
	row, ok := t.Pairs[service]
	if !ok {
		return Cell{}, false
	}
	p, ok := row[batch]
	if !ok {
		return Cell{}, false
	}
	switch mode {
	case core.ModeB:
		return p.B, true
	case core.ModeQ:
		return p.Q, true
	default:
		return Cell{}, true
	}
}

// Pair returns the full calibrated record for a (service, batch) pair.
func (t *Table) Pair(service, batch string) (PairPerf, bool) {
	p, ok := t.Pairs[service][batch]
	return p, ok
}

// Validate checks the table covers its declared inputs and that every cell
// is usable by the fleet engine (a slowdown below 1, a speedup above −1 —
// otherwise a mode would imply non-positive throughput).
func (t *Table) Validate() error {
	if t == nil {
		return fmt.Errorf("calib: nil table")
	}
	if err := t.Inputs.Validate(); err != nil {
		return err
	}
	for _, s := range t.Inputs.Services {
		for _, b := range t.Inputs.Batches {
			p, ok := t.Pairs[s][b]
			if !ok {
				return fmt.Errorf("calib: table missing pair %s × %s", s, b)
			}
			for _, c := range []Cell{p.B, p.Q} {
				if !(c.LSSlowdown < 1) {
					return fmt.Errorf("calib: %s × %s: LS slowdown %v implies non-positive performance", s, b, c.LSSlowdown)
				}
				if !(c.BatchSpeedup > -1) {
					return fmt.Errorf("calib: %s × %s: batch speedup %v implies non-positive throughput", s, b, c.BatchSpeedup)
				}
			}
		}
	}
	return nil
}

// Build runs the cycle-level model over the inputs' grid — once per core
// configuration — and distils the per-pair per-mode deltas. This is the
// expensive path: the full default grid simulates hundreds of colocations.
// Deterministic: the same inputs build the same table at any GOMAXPROCS.
func Build(in Inputs) (*Table, error) {
	hash, err := in.Fingerprint()
	if err != nil {
		return nil, err
	}
	lab := colocate.NewLab(in.Spec)
	equal, err := lab.Grid(colocate.BaselineConfig(), in.Services, in.Batches)
	if err != nil {
		return nil, err
	}
	bGrid, err := lab.Grid(colocate.SkewConfig(in.BSkew), in.Services, in.Batches)
	if err != nil {
		return nil, err
	}
	qGrid, err := lab.Grid(colocate.SkewConfig(in.QSkew), in.Services, in.Batches)
	if err != nil {
		return nil, err
	}
	solo, err := lab.Solo(core.Solo(), append(append([]string(nil), in.Services...), in.Batches...)...)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Hash:    hash,
		Inputs:  in,
		Pairs:   make(map[string]map[string]PairPerf, len(in.Services)),
		SoloIPC: make(map[string]float64, len(solo)),
	}
	for n, a := range solo {
		t.SoloIPC[n] = a.IPC
	}
	for _, s := range in.Services {
		t.Pairs[s] = make(map[string]PairPerf, len(in.Batches))
		for _, b := range in.Batches {
			eq, bm, qm := equal[s][b], bGrid[s][b], qGrid[s][b]
			t.Pairs[s][b] = PairPerf{
				B: Cell{
					LSSlowdown:   colocate.Slowdown(bm.LSAgg.IPC, eq.LSAgg.IPC),
					BatchSpeedup: colocate.Speedup(bm.BatchAgg.IPC, eq.BatchAgg.IPC),
				},
				Q: Cell{
					LSSlowdown:   colocate.Slowdown(qm.LSAgg.IPC, eq.LSAgg.IPC),
					BatchSpeedup: colocate.Speedup(qm.BatchAgg.IPC, eq.BatchAgg.IPC),
				},
				EqualLSIPC:    eq.LSAgg.IPC,
				EqualBatchIPC: eq.BatchAgg.IPC,
			}
		}
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("calib: built an unusable table: %w", err)
	}
	return t, nil
}

// Save writes the table as indented JSON (deterministic: JSON object keys
// marshal sorted).
func (t *Table) Save(path string) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a table from disk and verifies it: the stored hash must match
// the stored inputs' fingerprint (a hand-edited or version-skewed cache is
// rejected) and the pairs must cover the inputs.
func Load(path string) (*Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parse(data, path)
}

func parse(data []byte, origin string) (*Table, error) {
	var t Table
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("calib: %s: %w", origin, err)
	}
	hash, err := t.Inputs.Fingerprint()
	if err != nil {
		return nil, fmt.Errorf("calib: %s: %w", origin, err)
	}
	if hash != t.Hash {
		return nil, fmt.Errorf("calib: %s is stale: stored hash %.12s… does not match inputs (now %.12s…); rebuild with calib.Build or calib.Cached", origin, t.Hash, hash)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("calib: %s: %w", origin, err)
	}
	return &t, nil
}

// Cached returns the table for in, paying cycle-level cost at most once
// per content hash: if path holds a table whose hash matches the inputs'
// fingerprint it is loaded; otherwise the table is built and written to
// path. A missing file is a cache miss, not an error.
func Cached(path string, in Inputs) (*Table, error) {
	want, err := in.Fingerprint()
	if err != nil {
		return nil, err
	}
	if t, err := Load(path); err == nil && t.Hash == want {
		return t, nil
	}
	t, err := Build(in)
	if err != nil {
		return nil, err
	}
	if err := t.Save(path); err != nil {
		return nil, err
	}
	return t, nil
}

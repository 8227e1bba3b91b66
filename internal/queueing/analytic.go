// Analytic is the fast path behind the fleet's auto engine: a closed-form
// steady-state solution of the same bursty M/G/k system Simulate realises
// event by event. It exists because a steady
// window — stationary arrival rate, fixed mode, no warm-up — is fully
// described by its queueing equilibrium, so simulating hundreds of
// requests per core-window to estimate a tail quantile is wasted work at
// fleet scale (the paper's slack argument is itself a steady-state
// argument). The solver composes:
//
//   - an Erlang-C wait probability on the offered request load, with the
//     Allen-Cunneen (C²a+C²s)/2 correction for service variability and
//     batch-arrival dispersion (C²a = E[G²]/E[G] for the fixed-size burst
//     distribution G realised by BurstProb/BurstLen);
//   - a conditional queueing delay modelled as a two-branch
//     hyperexponential around the Allen-Cunneen rate (kμ−λ)/corr: the
//     heavy branch captures burst-driven waits, whose tail a single
//     mean-matched exponential systematically underestimates;
//   - within-burst drain delays: burst member j waits for j−f earliest
//     completions of the ~kμ service pool, where f is the free-server
//     count drawn from the truncated-Erlang busy distribution in the
//     no-wait branch and zero in the wait branch;
//   - the log-normal service time itself.
//
// The resulting sojourn distribution — a mixture of shifted log-normals,
// half of them convolved with the exponential wait — is deposited into the
// same log-bucketed stats.Histogram geometry the discrete simulator
// records into, as integer counts via cumulative rounding. Quantiles
// therefore come off the identical bucket-midpoint grid, which is what
// bounds the analytic-vs-discrete disagreement by the histogram's bucket
// resolution on steady windows.
package queueing

import (
	"fmt"
	"math"

	"stretch/internal/stats"
)

const (
	// AnalyticMaxUtilization is the soundness ceiling of the closed-form
	// solver, and the one utilization limit of the fleet's auto engine:
	// its cohort walk and counterfactual evaluator answer analytically
	// only at or below it. The solver's accuracy envelope
	// (TestAnalyticMatchesDiscrete) is validated through this point;
	// above it the heavy-traffic approximations degrade and the
	// equilibrium itself takes longer than a window to reach, so the
	// solver refuses and callers keep the discrete simulator.
	AnalyticMaxUtilization = 0.85
	// maxAnalyticWorkers bounds the Erlang busy-distribution recurrence:
	// beyond it the a^i/i! terms approach float64 overflow and the O(k)
	// solve stops being cheap. Larger pools fall back to the simulator.
	maxAnalyticWorkers = 512
	// minAnalyticWorkers floors the pool size: in near-saturated tiny
	// pools a single burst swamps every server and the within-burst drain
	// model double-counts the backlog (fuzzing found ~2× mean inflation at
	// k=1, ρ=0.87 with batches). Every calibrated service runs 10-16
	// workers per core; smaller pools fall back to the simulator.
	minAnalyticWorkers = 8
	// maxAnalyticBurst bounds the within-burst mixture enumeration.
	maxAnalyticBurst = 64
	// maxAnalyticCV and maxAnalyticCa2 bound the variability the solver
	// will answer for: Allen-Cunneen's two-moment waiting-time scaling
	// overestimates heavily once service variance (cs² ≫ 1) or batch
	// arrival dispersion (C²a = E[G²]/E[G] ≫ 1) dominates — fuzzing found
	// ~45% mean error at CV 2.15 and ~40% at C²a ≈ 10. Every calibrated
	// service sits at CV ≤ 0.5 and C²a ≤ 2.8; stranger shapes fall back to
	// the discrete simulator.
	maxAnalyticCV  = 1.0
	maxAnalyticCa2 = 4.0
	// analyticMass is the integer probability mass deposited into the
	// histogram: large enough that quantile ranks resolve every bucket,
	// small enough that a fleet merging millions of analytic windows
	// cannot overflow uint64 counts.
	analyticMass = 1 << 20
	// heavyTailFactor and heavyShare parameterise the heavy branch of the
	// hyperexponential conditional wait (see analyticSolve): the heavy
	// branch decays heavyTailFactor× slower than the Allen-Cunneen rate,
	// and carries heavyShare of the batch component of the arrival
	// dispersion. Calibrated once against the discrete simulator over the
	// full service catalogue and utilization grid.
	heavyTailFactor = 3.0
	heavyShare      = 0.22
)

// expComp is one exponential branch of the conditional-wait mixture.
type expComp struct {
	rate float64 // decay rate, per ms
	frac float64 // branch probability
}

// Utilization returns the offered request load over service capacity,
// ρ = λ·E[S]/k, for the configured service at the given arrival rate and
// perf factor — the signal the analytic solver compares against
// AnalyticMaxUtilization.
func Utilization(cfg Config, ratePerSec, perfFactor float64) float64 {
	if cfg.Workers <= 0 || perfFactor <= 0 {
		return math.Inf(1)
	}
	b := int(cfg.BurstLen)
	if b < 1 {
		b = 1
	}
	eg := 1 + cfg.BurstProb*float64(b-1)
	return ratePerSec / 1000 * eg * cfg.MeanServiceMs / perfFactor / float64(cfg.Workers)
}

// Analytic solves the configured service in closed form at the given
// arrival rate (requests per second) and perf factor, returning the same
// Result fields Simulate measures. Requests is zero: no discrete requests
// exist on this path. Quantiles are read from an
// analytically filled stats.Histogram with the standard tail geometry
// regardless of cfg.Estimator, so they sit on the same bucket-midpoint
// grid as a histogram-estimator simulation. It errors when the system is
// outside the solver's soundness envelope (utilization above
// AnalyticMaxUtilization, oversized worker pools or bursts, service CV
// beyond the calibrated range): those regimes need the discrete
// simulator.
func Analytic(cfg Config, ratePerSec, perfFactor float64) (Result, error) {
	h, meanMs, err := analyticSolve(cfg, ratePerSec, perfFactor)
	if err != nil {
		return Result{}, err
	}
	r := Result{
		MeanMs: meanMs,
		P95Ms:  h.Quantile(0.95),
		P99Ms:  h.Quantile(0.99),
		QoSMs:  h.Quantile(cfg.QoSQuantile),
	}
	r.MeetsQoS = r.QoSMs <= cfg.QoSTargetMs
	return r, nil
}

// AnalyticTail returns the latency at the service's QoS quantile from the
// analytic solution. When sampleEquiv > 0 it emulates the rank convention
// of a discrete window that measured sampleEquiv requests minus the 10%
// warm-up: a finite sample's closest-rank quantile sits at rank
// ⌊q·(m−1)⌋ of m observations — systematically below the asymptotic
// quantile for small m — and the fleet's auto engine must reproduce that
// convention, not improve on it, for analytic and discrete windows to
// agree within bucket resolution.
func AnalyticTail(cfg Config, ratePerSec, perfFactor float64, sampleEquiv int) (float64, error) {
	h, _, err := analyticSolve(cfg, ratePerSec, perfFactor)
	if err != nil {
		return 0, err
	}
	q := cfg.QoSQuantile
	if m := sampleEquiv - sampleEquiv/10; m > 1 {
		rank := math.Floor(q * float64(m-1))
		q = (rank + 0.5) / float64(m)
	}
	return h.Quantile(q), nil
}

// analyticSolve builds the steady-state sojourn-time distribution and
// deposits it into a fresh tail histogram; it returns the histogram and
// the analytic mean sojourn time.
func analyticSolve(cfg Config, ratePerSec, perfFactor float64) (*stats.Histogram, float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	if ratePerSec <= 0 {
		return nil, 0, fmt.Errorf("queueing: non-positive rate")
	}
	if perfFactor <= 0 || perfFactor > MaxPerfFactor || math.IsNaN(perfFactor) {
		return nil, 0, fmt.Errorf("queueing: perf factor %v out of (0,%v]", perfFactor, float64(MaxPerfFactor))
	}
	k := cfg.Workers
	if k > maxAnalyticWorkers {
		return nil, 0, fmt.Errorf("queueing: analytic solver capped at %d workers (have %d)", maxAnalyticWorkers, k)
	}
	if k < minAnalyticWorkers {
		return nil, 0, fmt.Errorf("queueing: analytic solver floored at %d workers (have %d)", minAnalyticWorkers, k)
	}
	b := int(cfg.BurstLen)
	if b < 1 {
		b = 1
	}
	if b > maxAnalyticBurst {
		return nil, 0, fmt.Errorf("queueing: analytic solver capped at burst length %d (have %d)", maxAnalyticBurst, b)
	}
	if cfg.ServiceCV > maxAnalyticCV {
		return nil, 0, fmt.Errorf("queueing: analytic solver capped at service CV %v (have %v)", float64(maxAnalyticCV), cfg.ServiceCV)
	}
	p := cfg.BurstProb
	if b == 1 {
		p = 0 // a burst of one is no burst: the discrete path adds nothing
	}

	eg := 1 + p*float64(b-1)             // E[G], requests per burst head
	es := cfg.MeanServiceMs / perfFactor // E[S], ms
	lam := ratePerSec / 1000 * eg        // request arrival rate, per ms
	rho := lam * es / float64(k)         // utilization
	kmu := float64(k) / es               // service-pool drain rate, per ms
	if rho > AnalyticMaxUtilization {
		return nil, 0, fmt.Errorf("queueing: utilization %.3f above analytic ceiling %v", rho, AnalyticMaxUtilization)
	}

	// Erlang-B recurrence on the offered request load a = kρ, then
	// Erlang-C for the wait probability.
	a := float64(k) * rho
	eb := 1.0
	for j := 1; j <= k; j++ {
		eb = a * eb / (float64(j) + a*eb)
	}
	pWait := eb / (1 - rho*(1-eb))

	// Allen-Cunneen correction: batch-Poisson arrival dispersion plus
	// log-normal service variability. For fixed-size bursts,
	// C²a = E[G²]/E[G] (the index of dispersion of request counts).
	eg2 := (1 - p) + p*float64(b)*float64(b)
	ca2 := eg2 / eg
	if ca2 > maxAnalyticCa2 {
		return nil, 0, fmt.Errorf("queueing: analytic solver capped at arrival dispersion C²a %v (have %.2f)", float64(maxAnalyticCa2), ca2)
	}
	cs2 := cfg.ServiceCV * cfg.ServiceCV
	corr := (ca2 + cs2) / 2
	if corr <= 0 {
		// Deterministic batchless service (cv=0, p=0) still queues; keep
		// the M/D/k halving rather than a degenerate zero wait.
		corr = 0.5
	}
	nu := (kmu - lam) / corr // base conditional-wait decay rate

	// The conditional wait is modelled hyperexponential rather than plain
	// Exp(ν): the log-normal workload has no finite moment generating
	// function, so the true wait tail is strictly heavier than the
	// mean-matched exponential, and burst dumps (a head dragging b·E[S]/k
	// of pool work in one instant) stretch it further. A second branch at
	// rate ν/heavyTailFactor, weighted by the batch share of the arrival
	// dispersion, captures burst-driven waits; both its weight law and the
	// factor are calibrated against the discrete simulator across the
	// service catalogue (TestAnalyticMatchesDiscrete). Poisson singleton
	// traffic (ca2→1) degenerates back to the plain exponential.
	wHeavy := heavyShare * (ca2 - 1) / (ca2 + cs2)
	if wHeavy < 0 {
		wHeavy = 0
	}
	waitMean := (1 + wHeavy*(heavyTailFactor-1)) / nu
	waitComps := []expComp{{rate: nu, frac: 1 - wHeavy}}
	if wHeavy > 0 {
		waitComps = append(waitComps, expComp{rate: nu / heavyTailFactor, frac: wHeavy})
	}

	// Truncated-Erlang busy-server distribution π_i ∝ a^i/i!, i<k: what a
	// non-waiting burst head finds on arrival (PASTA), determining how
	// many members start on free servers.
	pis := make([]float64, k)
	piSum := 0.0
	t := 1.0
	for i := 0; i < k; i++ {
		pis[i] = t
		piSum += t
		t *= a / float64(i+1)
	}

	// Mixture weights over within-burst drain positions: wNoWait[n] weighs
	// the component dNoWait[n] + S, wWait[n] the component
	// n/(kμ) + Exp(ν) + S.
	//
	// The two branches drain differently. Behind a wait, the pool is a
	// saturated flow: completions tick at kμ and member j starts (j−1)
	// ticks after the head. Without a wait, the burst hit free capacity:
	// members beyond the free servers wait for the n-th completion among
	// ~k concurrently running log-normal services — an order statistic
	// F⁻¹(n/(k+1)), far larger than n/(kμ) at low load because the n-th
	// of k fresh services finishing is nothing like a saturated drain.
	step := 1 / kmu
	dNoWait := make([]float64, b)
	for n := 1; n < b; n++ {
		if n <= k {
			dNoWait[n] = lognormQuantile(es, sigmaOf(cfg.ServiceCV), float64(n)/float64(k+1))
		} else {
			dNoWait[n] = lognormQuantile(es, sigmaOf(cfg.ServiceCV), float64(k)/float64(k+1)) + float64(n-k)*step
		}
	}
	wNoWait := make([]float64, b)
	wWait := make([]float64, b)
	fBatch := p * float64(b) / eg // fraction of requests arriving in bursts
	wNoWait[0] += (1 - fBatch) * (1 - pWait)
	wWait[0] += (1 - fBatch) * pWait
	if b > 1 {
		wj := fBatch / float64(b) // requests are uniform over burst positions
		for j := 1; j <= b; j++ {
			// Head waited: all k servers busy when the burst reaches the
			// front; member j drains j−1 completions behind the head.
			wWait[j-1] += wj * pWait
			// Head started immediately: i busy servers leave k−i free;
			// members beyond them wait for pool completions.
			for i := 0; i < k; i++ {
				n := j - (k - i)
				if n < 0 {
					n = 0
				}
				wNoWait[n] += wj * (1 - pWait) * pis[i] / piSum
			}
		}
	}

	meanMs := es
	for n, w := range wNoWait {
		meanMs += w * dNoWait[n]
	}
	for n, w := range wWait {
		meanMs += w * (float64(n)*step + waitMean)
	}

	h := stats.NewTailHistogram()
	depositAnalytic(h, cfg, es, waitComps, step, dNoWait, wNoWait, wWait)
	return h, meanMs, nil
}

// sigmaOf converts a coefficient of variation to the log-normal σ.
func sigmaOf(cv float64) float64 { return math.Sqrt(math.Log(1 + cv*cv)) }

// lognormQuantile returns the u-quantile of a log-normal distribution
// with the given mean and log-space σ.
func lognormQuantile(mean, sigma, u float64) float64 {
	if sigma == 0 {
		return mean
	}
	mu := math.Log(mean) - sigma*sigma/2
	return math.Exp(mu + sigma*math.Sqrt2*math.Erfinv(2*u-1))
}

// tailEdges and tailMids are the tail histogram's bucket upper edges and
// midpoints, constants of its geometry built once per process. The
// underflow bucket's midpoint is 0; the top bucket's is +Inf, which the
// histogram clamps into the top bucket.
var tailEdges, tailMids = tailGrid()

func tailGrid() (edges, mids []float64) {
	h := stats.NewTailHistogram()
	prev := 0.0
	for j := range h.NumBuckets() {
		u := h.UpperBound(j)
		edges, mids, prev = append(edges, u), append(mids, (prev+u)/2), u
	}
	mids[0] = 0
	return edges, mids
}

// depositAnalytic discretises the mixture distribution onto the histogram
// grid as integer counts. The service time is first discretised into
// per-bucket atoms at bucket midpoints (one erf per bucket edge); each
// mixture component then shifts those atoms by its drain delay and, for
// wait-branch components, convolves them with each exponential branch of
// the conditional wait via a single ascending pass over the bucket edges
// with a decaying prefix sum — O(b × branches × buckets) total, no
// quadratic convolution. Cumulative rounding converts the accumulated
// float mass to exactly analyticMass integer counts.
func depositAnalytic(h *stats.Histogram, cfg Config, es float64, waitComps []expComp, step float64, dNoWait, wNoWait, wWait []float64) {
	nb := h.NumBuckets()

	// Log-normal service CDF at full support; cv=0 degenerates to a step.
	sigma2 := math.Log(1 + cfg.ServiceCV*cfg.ServiceCV)
	sigma := math.Sqrt(sigma2)
	mu := math.Log(es) - sigma2/2
	cdf := func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		if sigma == 0 {
			if x >= es {
				return 1
			}
			return 0
		}
		return 0.5 * math.Erfc(-(math.Log(x)-mu)/(sigma*math.Sqrt2))
	}

	// Per-bucket service mass. The top bucket's edge is +Inf, where cdf is
	// exactly 1, so it absorbs the remaining upper tail.
	edges, mids := tailEdges, tailMids
	sMass := make([]float64, nb)
	prevCDF := 0.0
	for j, u := range edges {
		c := cdf(u)
		sMass[j], prevCDF = c-prevCDF, c
	}

	// Accumulate each component's mass into float buckets.
	fTot := make([]float64, nb)
	for n, w := range wNoWait {
		if w <= 0 {
			continue
		}
		d := dNoWait[n]
		if d == 0 {
			// Unshifted: atoms land back in their own buckets exactly.
			for j, m := range sMass {
				fTot[j] += w * m
			}
			continue
		}
		// Shifted atoms ascend with j, so the destination bucket only moves
		// forward: a single merge walk over the precomputed edges replaces a
		// per-atom binary search through Histogram.UpperBound (which
		// dominated the solve's profile).
		bi := 0
		for j, m := range sMass {
			if m <= 0 {
				continue
			}
			x := mids[j] + d
			for bi < nb-1 && x >= edges[bi] {
				bi++
			}
			fTot[bi] += w * m
		}
	}
	if hasMass(wWait) {
		decay := make([]float64, nb)
		cdfW := make([]float64, nb)
		for _, wc := range waitComps {
			if wc.frac <= 0 {
				continue
			}
			nu := wc.rate
			// Per-branch edge decay factors for the exponential convolution.
			for j := 1; j < nb; j++ {
				if math.IsInf(edges[j], 1) {
					decay[j] = 0
					continue
				}
				decay[j] = math.Exp(-nu * (edges[j] - edges[j-1]))
			}
			for n, w := range wWait {
				if w <= 0 {
					continue
				}
				d := float64(n) * step
				// Ascending edge pass: A carries Σ mass·e^{−ν(edge−pos)} over
				// atoms whose shifted position pos ≤ edge; the component CDF at
				// an edge is (cumulative atom mass) − A.
				A, cum := 0.0, 0.0
				ai := 0
				for j := 0; j < nb; j++ {
					if math.IsInf(edges[j], 1) {
						cdfW[j] = 1
						continue
					}
					if j > 0 {
						A *= decay[j]
					}
					for ai < nb && !math.IsInf(mids[ai], 1) && mids[ai]+d <= edges[j] {
						if m := sMass[ai]; m > 0 {
							A += m * math.Exp(-nu*(edges[j]-(mids[ai]+d)))
							cum += m
						}
						ai++
					}
					cdfW[j] = cum - A
				}
				prev := 0.0
				for j := 0; j < nb; j++ {
					fTot[j] += w * wc.frac * (cdfW[j] - prev)
					prev = cdfW[j]
				}
			}
		}
	}

	// Cumulative rounding: deposit exactly analyticMass counts, each
	// bucket getting round(cumMass·N) − already-deposited.
	cum := 0.0
	var deposited uint64
	for j := 0; j < nb; j++ {
		cum += fTot[j]
		target := uint64(math.Round(cum * analyticMass))
		if target > analyticMass {
			target = analyticMass
		}
		if target > deposited {
			h.AddN(mids[j], target-deposited)
			deposited = target
		}
	}
	if deposited < analyticMass {
		h.AddN(math.Inf(1), analyticMass-deposited)
	}
}

func hasMass(ws []float64) bool {
	for _, w := range ws {
		if w > 0 {
			return true
		}
	}
	return false
}

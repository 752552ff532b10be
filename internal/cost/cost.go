// Package cost implements the paper's I/O- and network-aware cost
// model (§4): the closed-form execution-time estimate of a single
// MapReduce job (Eq. 1–6) and the partition score of Eq. 7. The
// planner picks a job's reducer count as the argmin of T(k) over
// k = 1..K_P, so Eq. 10's λ-weighted Δ(k_R) trade-off is not used.
//
// The model prices from mr.Rates, the price list the discrete-event
// simulator (internal/mr) charges: C1 = 1/ReadBps, C2 = 1/NetBps, and
// p and q are Rates.P and Rates.Q. Comparing "estimated" vs "simulated"
// execution time is therefore a genuine model-validation experiment
// (Fig. 8): the simulator sees wave quantisation, actual reducer skew
// and copy/compute overlap that the closed form only approximates.
package cost

import (
	"fmt"
	"math"

	"repro/internal/mr"
)

// JobProfile characterises one MapReduce job for estimation: total
// input S_I, map task count m and slot bound m', the map output ratio
// α (query-specific, from selectivity estimation), the reduce output
// ratio β, and the reducer-input standard deviation σ used by the
// three-sigma straggler bound.
type JobProfile struct {
	InputBytes int64   // S_I
	MapTasks   int     // m
	MapSlots   int     // m'
	Alpha      float64 // map output ratio
	Beta       float64 // reduce output ratio
	Sigma      float64 // stddev of reducer input bytes
}

// Validate reports profile errors.
func (jp JobProfile) Validate() error {
	switch {
	case jp.InputBytes < 0:
		return fmt.Errorf("cost: negative input bytes")
	case jp.MapTasks < 1:
		return fmt.Errorf("cost: map tasks must be >= 1")
	case jp.MapSlots < 1:
		return fmt.Errorf("cost: map slots must be >= 1")
	case jp.Alpha < 0 || jp.Beta < 0 || jp.Sigma < 0:
		return fmt.Errorf("cost: ratios and sigma must be non-negative")
	}
	return nil
}

// Estimate is the Eq. 1–6 decomposition for a given reducer count.
type Estimate struct {
	N   int     // reduce tasks
	TM  float64 // Eq. 1: single map task time
	JM  float64 // Eq. 2: map phase total
	TCP float64 // Eq. 3: single map output copy time
	JCP float64 // Eq. 4: copy phase total
	SR  float64 // S*_r: straggler reducer input bytes
	JR  float64 // Eq. 5: reduce phase (straggler) time
	T   float64 // Eq. 6: job makespan estimate
}

// Evaluate is the closed-form model of the job with n reduce tasks,
// priced by r.
func Evaluate(r mr.Rates, jp JobProfile, n int) (Estimate, error) {
	if err := jp.Validate(); err != nil {
		return Estimate{}, err
	}
	if n < 1 {
		return Estimate{}, fmt.Errorf("cost: reducers must be >= 1, got %d", n)
	}
	si := float64(jp.InputBytes)
	m := float64(jp.MapTasks)
	mPrime := math.Min(float64(jp.MapSlots), m)
	mapOut := jp.Alpha * si
	mapOutPerTask := int64(mapOut / m)
	c1, c2, writeCost := 1/r.ReadBps, 1/r.NetBps, 1/r.WriteBps
	pv := r.P(mapOutPerTask)
	// Eq. 1: t_M = (C1 + p·α) · S_I/m, plus the fixed task overhead.
	tM := r.TaskOverhead + (c1+pv*jp.Alpha)*si/m
	// Eq. 2: J_M = t_M · m/m'.
	jM := tM * m / mPrime
	// Eq. 3: t_CP = C2·α·S_I/(n·m) + q·n.
	tCP := c2*mapOut/(float64(n)*m) + r.Q(n)*float64(n)
	// Eq. 4: J_CP = (m/m')·t_CP.
	jCP := tCP * m / mPrime
	// S*_r = α·S_I/n + 3σ (three-sigma straggler bound).
	sr := mapOut/float64(n) + 3*jp.Sigma
	// Eq. 5: J_R = (p + β·C1)·S*_r. The paper prices the reduce output
	// at the sequential-read constant C1; on the testbed it calibrates
	// against, reads are 5× faster than writes, so we charge the
	// output at the write rate instead — the simulator's reducers
	// physically write their output, and Fig. 8's estimate-vs-simulated
	// agreement depends on the two sides pricing it identically.
	jR := r.TaskOverhead + (r.P(int64(sr))+jp.Beta*writeCost)*sr
	// Eq. 6: overlap of map and copy phases.
	var t float64
	if tM >= tCP {
		t = jM + tCP + jR
	} else {
		t = tM + jCP + jR
	}
	return Estimate{N: n, TM: tM, JM: jM, TCP: tCP, JCP: jCP, SR: sr, JR: jR, T: t}, nil
}

// BestReducers sweeps n ∈ [1, maxN] and returns the estimate with the
// minimum makespan — the model's recommended RN(MRJ).
func BestReducers(r mr.Rates, jp JobProfile, maxN int) (Estimate, error) {
	if maxN < 1 {
		return Estimate{}, fmt.Errorf("cost: maxN must be >= 1")
	}
	var best Estimate
	for n := 1; n <= maxN; n++ {
		e, err := Evaluate(r, jp, n)
		if err != nil {
			return Estimate{}, err
		}
		if best.N == 0 || e.T < best.T {
			best = e
		}
	}
	return best, nil
}

// ProfileFromMetrics reconstructs a JobProfile from an executed job's
// metrics, for post-hoc model validation (Fig. 8).
func ProfileFromMetrics(m mr.Metrics, cfg mr.Config) JobProfile {
	alpha, beta := 0.0, 0.0
	if m.InputBytes > 0 {
		alpha = float64(m.ShuffleBytes) / float64(m.InputBytes)
	}
	if m.ShuffleBytes > 0 {
		beta = float64(m.OutputBytes) / float64(m.ShuffleBytes)
	}
	return JobProfile{
		InputBytes: m.InputBytes,
		MapTasks:   max(m.MapTasks, 1),
		MapSlots:   cfg.MapSlots,
		Alpha:      alpha,
		Beta:       beta,
		Sigma:      stddevInt64(m.ReducerInputBytes),
	}
}

func stddevInt64(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := float64(x) - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// MergeCost estimates the time of the ID-keyed merge step combining
// two job outputs (Fig. 4). The paper notes "such a merge operation
// only has output keys or data IDs involved, therefore, it can be done
// very efficiently": only ID columns (a small fraction of the tuple
// width, modelled at 2%) are scanned and re-written.
func MergeCost(r mr.Rates, leftBytes, rightBytes int64) float64 {
	return r.TaskOverhead + (1/r.ReadBps+1/r.WriteBps)*float64(leftBytes+rightBytes)*0.02
}

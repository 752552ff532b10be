package mr

import "math"

// Rates is the one price list of simulated time, built by
// Config.Rates. The engine composes MapTaskTime, CopyTime and
// ReduceTime into a job's makespan; internal/cost's closed form reads
// the same fields and the same p (P) and q (Q) laws, so Fig. 8's
// "estimated" vs "simulated" comparison shares its constants by
// construction.
type Rates struct {
	ReadBps    float64 // bytes/second sequential read
	WriteBps   float64 // bytes/second write
	NetBps     float64 // bytes/second per map-to-reduce stream
	SortBuf    int64   // io.sort.mb in bytes
	SortFactor int     // io.sort.factor: runs merged per pass
	QBase      float64 // seconds per connection at n=1
	// Overhead floor per task (JVM start, scheduling), seconds.
	TaskOverhead float64
}

// Rates derives the price list from the configuration's device speeds
// and Table 1 parameters; an IoSortFactor below 2 means the default.
func (c Config) Rates() Rates {
	sf := c.IoSortFactor
	if sf < 2 {
		sf = defaultSortFactor
	}
	return Rates{
		ReadBps:      c.DiskReadMBps * 1e6,
		WriteBps:     c.DiskWriteMBps * 1e6,
		NetBps:       c.NetworkMBps * 1e6,
		SortBuf:      int64(c.IoSortMB) * 1e6,
		SortFactor:   sf,
		QBase:        0.0005,
		TaskOverhead: 1.0,
	}
}

// SpillFactor returns p's inflation multiplier for a given spilled
// volume: 1 while the data fits the sort buffer, growing gently with
// the (io.sort.factor-ary) merge depth — Hadoop merges up to
// io.sort.factor runs per pass, so even hundreds of runs cost one
// extra pass, matching the paper's mild growth of p (Fig. 7b).
func (r Rates) SpillFactor(outputBytes int64) float64 {
	if outputBytes <= r.SortBuf || r.SortBuf <= 0 {
		return 1
	}
	runs := float64(outputBytes) / float64(r.SortBuf)
	return 1 + 0.3*(1+math.Log(runs)/math.Log(float64(r.SortFactor)))
}

// P is the spill cost variable p of §4.1 in seconds per byte: the write
// cost inflated by SpillFactor.
func (r Rates) P(spillBytes int64) float64 {
	return 1 / r.WriteBps * r.SpillFactor(spillBytes)
}

// Q returns the per-connection overhead coefficient q as a function of
// reducer count. q itself grows linearly in n, so the q·n term of
// Eq. 3 grows quadratically — the "rapid growth of q while n gets
// larger" that creates the Fig. 6 inflection and keeps the optimal k_R
// of Fig. 7a in the tens rather than the hundreds.
func (r Rates) Q(numReducers int) float64 {
	if numReducers < 1 {
		numReducers = 1
	}
	return r.QBase * float64(numReducers)
}

// MapTaskTime is t_M for one map task: sequential scan of its split
// plus spilling its output (Eq. 1: (C1 + p·α)·S_I/m).
func (r Rates) MapTaskTime(inputBytes, outputBytes int64) float64 {
	read := float64(inputBytes) / r.ReadBps
	spill := float64(outputBytes) / r.WriteBps * r.SpillFactor(outputBytes)
	return r.TaskOverhead + read + spill
}

// CopyTime is t_CP for one map task's output moving to n reducers
// (Eq. 3: C2·α·S_I/(n·m) + q·n).
func (r Rates) CopyTime(outputBytes int64, numReducers int) float64 {
	if numReducers < 1 {
		numReducers = 1
	}
	transfer := float64(outputBytes) / r.NetBps
	service := r.Q(numReducers) * float64(numReducers)
	return transfer + service
}

// ReduceTime is the run time of one reduce task over its input
// (Eq. 5: (p + β·C1)·S_r).
func (r Rates) ReduceTime(inputBytes, outputBytes int64) float64 {
	// Read + sort-merge the shuffled input (charged at write rate: the
	// merge spills), then write the final output to the DFS.
	merge := float64(inputBytes) / r.WriteBps * r.SpillFactor(inputBytes)
	write := float64(outputBytes) / r.WriteBps
	return r.TaskOverhead + merge + write
}

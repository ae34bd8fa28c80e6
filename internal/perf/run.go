package perf

import "time"

// RunResult is one model run's headline numbers.
type RunResult struct {
	Config      string
	CPS         float64
	Gbps        float64
	AvgLatency  time.Duration
	P99Latency  time.Duration
	Utilization float64
	Stats       *Stats
}

// RunOptions configures one model run.
type RunOptions struct {
	Params  Params
	Config  Config
	Seed    int64
	Warmup  time.Duration
	Measure time.Duration
	Install func(*Model) // workload installer
}

func (o RunOptions) withDefaults() RunOptions {
	if o.Params == (Params{}) {
		o.Params = DefaultParams()
	}
	if o.Warmup <= 0 {
		o.Warmup = 200 * time.Millisecond
	}
	if o.Measure <= 0 {
		o.Measure = time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Run executes one simulation and summarizes it.
func Run(o RunOptions) RunResult {
	o = o.withDefaults()
	m := NewModel(o.Params, o.Config, o.Seed)
	o.Install(m)
	st := m.Run(o.Warmup, o.Measure)
	return RunResult{
		Config:      o.Config.Name,
		CPS:         st.CPS(o.Measure),
		Gbps:        st.Gbps(o.Measure),
		AvgLatency:  time.Duration(st.Latency.Mean()),
		P99Latency:  time.Duration(st.Latency.Quantile(0.99)),
		Utilization: st.Utilization(o.Config.Workers, o.Measure),
		Stats:       st,
	}
}

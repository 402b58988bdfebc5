package machine

import "fmt"

// Sampler drives a Machine while firing periodic observations at exact
// machine cycles. It is how time-series measurements (bus utilization
// over time, lock-convoy phases, warmup-vs-steady-state miss ratios) are
// taken without polluting the machine's own cycle loop.
type Sampler struct {
	m     *Machine
	start uint64
	every []sampleTick
}

// sampleTick is one Every registration: fn fires when the machine cycle
// reaches next, and next then advances by interval.
type sampleTick struct {
	interval, next uint64
	fn             func(m *Machine)
}

// NewSampler wraps a machine. The sampler's clock starts at the machine's
// current cycle.
func NewSampler(m *Machine) *Sampler {
	return &Sampler{m: m, start: m.Cycle()}
}

// Every schedules fn at each multiple of interval cycles counted from the
// sampler's start cycle, for the lifetime of the run. fn receives the
// machine at the sampling instant.
func (s *Sampler) Every(interval uint64, fn func(m *Machine)) {
	if interval == 0 {
		panic("machine: zero sampling interval")
	}
	elapsed := s.m.Cycle() - s.start
	next := s.start + (elapsed/interval+1)*interval
	s.every = append(s.every, sampleTick{interval: interval, next: next, fn: fn})
}

// Run steps the machine until it is done or maxCycles elapse, firing
// scheduled observations at their exact cycles (an observation at cycle c
// sees the machine state after cycle c completed).
func (s *Sampler) Run(maxCycles uint64) (uint64, error) {
	start := s.m.Cycle()
	for s.m.Cycle()-start < maxCycles && !s.m.Done() {
		if err := s.m.Step(); err != nil {
			return s.m.Cycle() - start, err
		}
		c := s.m.Cycle()
		for i := range s.every {
			for s.every[i].next <= c {
				s.every[i].fn(s.m)
				s.every[i].next += s.every[i].interval
			}
		}
	}
	return s.m.Cycle() - start, s.m.Err()
}

// UtilizationSeries samples bus utilization over windows of the given
// interval while running the machine to completion: the time-series view
// of the Section 7 saturation analysis. It returns one utilization value
// per completed window.
func (s *Sampler) UtilizationSeries(interval, maxCycles uint64) ([]float64, error) {
	if interval == 0 {
		return nil, fmt.Errorf("machine: zero sampling interval")
	}
	var series []float64
	var lastBusy, lastTotal uint64
	s.Every(interval, func(m *Machine) {
		st := m.buses.Stats()
		busy, total := st.BusyCycles, st.BusyCycles+st.IdleCycles
		if total > lastTotal {
			series = append(series, float64(busy-lastBusy)/float64(total-lastTotal))
		}
		lastBusy, lastTotal = busy, total
	})
	if _, err := s.Run(maxCycles); err != nil {
		return series, err
	}
	return series, nil
}

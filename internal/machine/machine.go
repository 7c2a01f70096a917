// Package machine models the cluster hardware of the paper's testbed: a
// network of workstations, each with one CPU, a NIC attached to a
// collision-free switch, and a fixed amount of physical memory backed by
// slow (NFS-era) swap.
//
// The model is deliberately simple — LogGP-style point-to-point messaging
// plus an LRU page cache — because the paper's claims are about *relative*
// performance of programming styles on identical hardware, not about
// network microarchitecture. All parameters are calibrated from the
// paper's own measurements (see SunBlade100 and DESIGN.md §5).
package machine

import (
	"fmt"

	"repro/internal/sim"
)

// Config holds the hardware parameters of a homogeneous cluster.
type Config struct {
	// CPURate is the effective floating-point rate of one PE running the
	// blocked matrix-multiply kernel, in flop/s.
	CPURate float64
	// NICBandwidth is the effective end-to-end bandwidth of one NIC, in
	// bytes/s (100 Mbps Ethernet ≈ 11.5 MB/s effective).
	NICBandwidth float64
	// SwitchLatency is the one-way message latency through the switch and
	// protocol stack, in seconds.
	SwitchLatency sim.Time
	// SendOverhead is CPU time consumed on the sender per message
	// (system-call and protocol overhead), in seconds.
	SendOverhead sim.Time
	// RecvOverhead is CPU time consumed on the receiver per message.
	RecvOverhead sim.Time
	// MemoryBytes is the physical memory available to application data on
	// one PE, in bytes (256 MB machines minus OS/daemon footprint).
	MemoryBytes int64
	// PageInRate is the sustained rate at which pages fault in from swap,
	// in bytes/s. NFS-backed swap on the paper's LAN is ~1 MB/s.
	PageInRate float64
	// ElemBytes is the size of one matrix element. The paper's memory
	// figures (1 GB for three N=9216 matrices) imply 4-byte floats.
	ElemBytes int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.CPURate <= 0:
		return fmt.Errorf("machine: CPURate %v must be positive", c.CPURate)
	case c.NICBandwidth <= 0:
		return fmt.Errorf("machine: NICBandwidth %v must be positive", c.NICBandwidth)
	case c.SwitchLatency < 0 || c.SendOverhead < 0 || c.RecvOverhead < 0:
		return fmt.Errorf("machine: negative latency/overhead")
	case c.MemoryBytes <= 0:
		return fmt.Errorf("machine: MemoryBytes %v must be positive", c.MemoryBytes)
	case c.PageInRate <= 0:
		return fmt.Errorf("machine: PageInRate %v must be positive", c.PageInRate)
	case c.ElemBytes <= 0:
		return fmt.Errorf("machine: ElemBytes %v must be positive", c.ElemBytes)
	}
	return nil
}

// SunBlade100 returns the calibrated model of the paper's testbed: SUN
// Blade 100 workstations (502 MHz UltraSPARC-IIe, 256 MB RAM, SunOS 5.8)
// on switched 100 Mbps Ethernet with NFS-backed storage.
//
// Calibration (DESIGN.md §5): the Table 1 sequential column gives
// 2·1536³/65.44 s ≈ 110.7 Mflop/s for the blocked kernel; 100 Mbps
// Ethernet delivers ≈ 11.5 MB/s effective; the Table 2 thrashing run
// implies ≈ 1.05 MB/s sustained page-in.
func SunBlade100() Config {
	return Config{
		CPURate:       110.7e6,
		NICBandwidth:  11.5e6,
		SwitchLatency: 150e-6,
		SendOverhead:  60e-6,
		RecvOverhead:  60e-6,
		MemoryBytes:   230 << 20, // 256 MB minus OS/daemon footprint
		PageInRate:    1.05e6,
		ElemBytes:     4,
	}
}

// Modern returns a model of a present-day commodity cluster node, for
// re-running the paper's experiments at scales its 2005 testbed could
// not hold: 10 GbE networking (~1.18 GB/s effective), microsecond-class
// switch and protocol overheads, 16 GB of RAM, NVMe-backed paging, and
// float64 elements (the fast kernel's native width).
//
// kernelRate is the measured flop/s of this host's GEMM kernel —
// matrix.MeasureActiveRate feeds the real measured number in, so the
// simulated tables are anchored to the hardware that generated them
// rather than to a guessed peak. A non-positive kernelRate falls back
// to 20 Gflop/s, a mid-range single-core AVX2 figure.
func Modern(kernelRate float64) Config {
	if kernelRate <= 0 {
		kernelRate = 20e9
	}
	return Config{
		CPURate:       kernelRate,
		NICBandwidth:  1.18e9,
		SwitchLatency: 10e-6,
		SendOverhead:  5e-6,
		RecvOverhead:  5e-6,
		MemoryBytes:   15 << 30, // 16 GB minus OS footprint
		PageInRate:    500e6,    // NVMe swap, sustained
		ElemBytes:     8,
	}
}

// Cluster is a set of PEs sharing a collision-free switch, driven by one
// simulation kernel.
type Cluster struct {
	Kernel *sim.Kernel
	Config Config
	PEs    []*PE
}

// PE is one processing element: a workstation with a single CPU, one
// full-duplex NIC port, and a paged memory.
type PE struct {
	ID     int
	CPU    *sim.Resource
	NICOut *sim.Resource
	NICIn  *sim.Resource
	Mem    *Pager
	// Rate is this PE's floating-point rate in flop/s. It defaults to
	// the cluster-wide Config.CPURate; lower it on individual PEs to
	// model a heterogeneous cluster (see SetCPURate).
	Rate float64
	conf *Config
}

// NewCluster builds n PEs on kernel k with the given configuration.
func NewCluster(k *sim.Kernel, cfg Config, n int) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if n <= 0 {
		panic(fmt.Sprintf("machine: cluster size %d must be positive", n))
	}
	cl := &Cluster{Kernel: k, Config: cfg}
	for i := 0; i < n; i++ {
		cl.PEs = append(cl.PEs, &PE{
			ID:     i,
			CPU:    sim.NewResource(fmt.Sprintf("pe%d.cpu", i), 1),
			NICOut: sim.NewResource(fmt.Sprintf("pe%d.nic.out", i), 1),
			NICIn:  sim.NewResource(fmt.Sprintf("pe%d.nic.in", i), 1),
			Mem:    NewPager(fmt.Sprintf("pe%d.mem", i), cfg.MemoryBytes, cfg.PageInRate),
			Rate:   cfg.CPURate,
			conf:   &cl.Config,
		})
	}
	return cl
}

// Size returns the number of PEs.
func (cl *Cluster) Size() int { return len(cl.PEs) }

// StartCompute acquires the PE's CPU for a computation, and EndCompute
// charges its flops of CPU work and releases the CPU; the computation's
// own work runs between the two, while the CPU is held. The PE has a
// single CPU, so concurrent computations on one PE serialize in FIFO
// order — exactly the MESSENGERS daemon's task queue behaviour the
// paper relies on. The pair, rather than one call taking the work as a
// func, lets a runtime run that func itself, so it never escapes.
func (pe *PE) StartCompute(p *sim.Proc) { pe.CPU.Acquire(p, 1) }

// EndCompute ends a computation begun with StartCompute.
func (pe *PE) EndCompute(p *sim.Proc, flops float64) {
	p.Sleep(flops / pe.Rate)
	pe.CPU.Release(1)
}

// SetCPURate overrides one PE's floating-point rate, making the cluster
// heterogeneous. Call before the simulation starts.
func (cl *Cluster) SetCPURate(pe int, rate float64) {
	if rate <= 0 {
		panic(fmt.Sprintf("machine: PE %d rate %v must be positive", pe, rate))
	}
	cl.PEs[pe].Rate = rate
}

// SerializeTime returns the time the sender's NIC is occupied emitting a
// message of the given payload size.
func (cl *Cluster) SerializeTime(bytes int64) sim.Time {
	return sim.Time(float64(bytes) / cl.Config.NICBandwidth)
}

// SendCost charges the sending side of a message on PE from: CPU send
// overhead, then the cut-through transfer window during which the message
// occupies both the sender's egress port and the receiver's ingress port
// (so two concurrent senders targeting one receiver serialize, as on a
// real switch, without double-counting transfer time). It returns the
// virtual time at which the message becomes available at the destination
// (transfer end + switch latency).
//
// Transfers from a PE to itself are free: both the MESSENGERS daemon and
// the paper's pointer-swapping MPI code short-cut local moves.
//
// The acquisition order (own egress, then remote ingress) cannot
// deadlock: every transfer holds at most one egress and one ingress port,
// and no process ever waits for an egress port while holding an ingress
// port.
func (cl *Cluster) SendCost(p *sim.Proc, from, to int, bytes int64) sim.Time {
	if from == to {
		return p.Now()
	}
	src, dst := cl.PEs[from], cl.PEs[to]
	// Protocol overhead occupies the sending process, not the CPU
	// resource: the daemon interleaves sub-millisecond stack work with
	// application bursts at far finer granularity than the bursts
	// themselves.
	p.Sleep(cl.Config.SendOverhead)
	src.NICOut.Acquire(p, 1)
	dst.NICIn.Acquire(p, 1)
	p.Sleep(cl.SerializeTime(bytes))
	dst.NICIn.Release(1)
	src.NICOut.Release(1)
	return p.Now() + cl.Config.SwitchLatency
}

// RecvCost charges the receiving side of a message on PE to: the receiver
// blocks until the message's arrival time readyAt, then pays CPU receive
// overhead. Local transfers cost nothing.
func (cl *Cluster) RecvCost(p *sim.Proc, to int, readyAt sim.Time, local bool) {
	if local {
		return
	}
	if readyAt > p.Now() {
		p.SleepUntil(readyAt)
	}
	p.Sleep(cl.Config.RecvOverhead)
}

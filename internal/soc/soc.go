package soc

import (
	"fmt"

	"repro/internal/logicsim"
	"repro/internal/netlist"
)

// Config sizes the SoC.
type Config struct {
	MPU      MPUConfig
	MemWords int
	// DMA models the peripheral traffic of the paper's Figure 1: a
	// reader that issues user-mode loads through the MPU whenever the
	// bus is idle, one access every DMAPeriod cycles.
	DMAEnabled        bool
	DMAPeriod         int
	DMABase, DMALimit uint16
	// MaxCycles bounds every run (fault attacks can wedge the core).
	MaxCycles int
}

// DefaultConfig returns the SoC configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		MPU:        DefaultMPUConfig(),
		MemWords:   4096,
		DMAEnabled: true,
		DMAPeriod:  7,
		DMABase:    0x300,
		DMALimit:   0x33F,
		MaxCycles:  4000,
	}
}

// busOp is an in-flight memory access.
type busOp struct {
	Active    bool
	Write     bool
	Marked    bool
	FromDMA   bool
	Addr      uint16
	Reg       int
	WData     uint16
	RespCycle int
}

// cpuState is the behavioural core's architectural state.
type cpuState struct {
	R      [8]uint16
	PC     int
	Priv   bool
	Halted bool
}

// MarkedOutcome records what happened to the marked illegal access.
type MarkedOutcome struct {
	// Resolved is set once the MPU answered the marked access.
	Resolved bool
	// Committed means the access was granted and took effect.
	Committed bool
	// Trapped means the violation trap fired for it.
	Trapped bool
	// IssueCycle, DecisionCycle, RespCycle are the cycles when the
	// marked access was driven, when the MPU's decision latched
	// (the paper's target cycle Tt), and when the core saw the
	// response.
	IssueCycle, DecisionCycle, RespCycle int
}

// SoC co-simulates the behavioural core, memory, and DMA with the
// gate-level MPU. It is not safe for concurrent use.
type SoC struct {
	Cfg  Config
	Prog *Program
	MPU  *MPU
	Sim  *logicsim.Simulator

	Mem []uint16

	cpu     cpuState
	pending busOp
	dmaNext int
	dmaAddr uint16
	// lastReq holds the previous request's address/type: the bus
	// keeps its last value during idle cycles (only valid is
	// deasserted), as real buses do.
	lastReq busOp

	cycle     int
	TrapCount int
	DMAViol   int
	Marked    MarkedOutcome

	// memHash is the XOR over all cells of memCellHash(addr, value),
	// maintained incrementally on committed writes so comparing Arch
	// against a golden state never rescans the memory image.
	memHash uint64

	// LogAccesses enables recording every issued bus access into
	// Accesses — used by the golden run so the analytical evaluator
	// knows which accesses fall between injection and target cycle.
	// The log is not part of checkpoints.
	LogAccesses bool
	Accesses    []AccessEvent

	// LogBusTrace enables recording, for every cycle, the exact values
	// driven onto the MPU input ports plus whether (and how) the system
	// consumed an MPU response that cycle. BusTrace is indexed by cycle
	// and lets a lane-batched resume replay the golden system's side of
	// the bus into a forked simulator without re-executing the
	// behavioural core. The log is not part of checkpoints.
	LogBusTrace bool
	BusTrace    []BusTraceEntry
}

// BusTraceEntry records one cycle of the golden system/MPU interface:
// everything the system drove into the MPU, and which MPU outputs the
// system read back. The behavioural core, memory, and DMA only observe
// the MPU through grant/viol at response-consumption cycles, so a faulty
// MPU whose outputs match RespGrant/RespViol at every RespConsumed cycle
// leaves the rest of the system exactly on the golden trajectory.
type BusTraceEntry struct {
	Valid, Write, Priv bool
	Addr               uint16
	CfgWe, CfgPriv     bool
	CfgAddr, CfgWData  uint16
	// RespConsumed marks cycles where the system read the MPU's
	// grant/viol outputs; RespGrant/RespViol are the golden values it
	// saw.
	RespConsumed, RespGrant, RespViol bool
	// RespDMARead marks a consumed response that belonged to a DMA
	// read. Whatever its grant/viol, such a response changes nothing
	// but DMAViol (see commit).
	RespDMARead bool
}

// AccessEvent is one issued bus access.
type AccessEvent struct {
	Cycle  int
	Addr   uint16
	Write  bool
	Priv   bool
	DMA    bool
	Marked bool
}

// New builds a SoC running the given program on a fresh MPU instance.
// Callers evaluating many fault injections over the same design should
// build once and Restore from checkpoints instead of re-elaborating.
func New(cfg Config, prog *Program) (*SoC, error) {
	mpu, err := BuildMPU(cfg.MPU)
	if err != nil {
		return nil, err
	}
	return WithMPU(cfg, prog, mpu)
}

// WithMPU builds a SoC around an existing MPU elaboration. The MPU's
// input ports are checked and its evaluation plan compiled once, by the
// first SoC built on it; a port bit that is not a primary input of its
// netlist is an error. Every later SoC simulates a fork of the plan.
func WithMPU(cfg Config, prog *Program, mpu *MPU) (*SoC, error) {
	if cfg.MemWords <= 0 {
		return nil, fmt.Errorf("soc: MemWords = %d", cfg.MemWords)
	}
	if prog == nil || len(prog.Instrs) == 0 {
		return nil, fmt.Errorf("soc: empty program")
	}
	sim, err := mpu.newSim()
	if err != nil {
		return nil, err
	}
	s := &SoC{Cfg: cfg, Prog: prog, MPU: mpu, Sim: sim, Mem: make([]uint16, cfg.MemWords)}
	s.Reset()
	return s, nil
}

// Reset restores power-on state: zeroed memory and registers,
// privileged core at PC 0.
func (s *SoC) Reset() {
	s.Sim.Reset()
	for i := range s.Mem {
		s.Mem[i] = 0
	}
	s.cpu = cpuState{Priv: true}
	s.pending = busOp{}
	s.lastReq = busOp{}
	s.dmaNext = s.Cfg.DMAPeriod
	s.dmaAddr = s.Cfg.DMABase
	s.cycle = 0
	s.TrapCount = 0
	s.DMAViol = 0
	s.Marked = MarkedOutcome{}
	s.memHash = 0
	for i := range s.Mem {
		s.memHash ^= memCellHash(i, 0)
	}
}

// Cycle returns the number of completed cycles.
func (s *SoC) Cycle() int { return s.cycle }

// Done reports whether the core has halted with no access in flight.
func (s *SoC) Done() bool { return s.cpu.Halted && !s.pending.Active }

// Priv reports whether the core is in privileged mode.
func (s *SoC) Priv() bool { return s.cpu.Priv }

// PC returns the core's program counter.
func (s *SoC) PC() int { return s.cpu.PC }

// InjectFunc performs a gate-level injection for the current cycle: it
// receives the fault-free value of every MPU node (post-evaluation) and
// returns the registers that latch a wrong value at the cycle's end.
type InjectFunc func(values func(netlist.NodeID) bool) []netlist.NodeID

// Step advances the SoC one clock cycle.
func (s *SoC) Step() { s.StepInject(nil) }

// StepInject advances one cycle, applying a gate-level fault injection
// at this cycle's closing clock edge when inject is non-nil.
func (s *SoC) StepInject(inject InjectFunc) {
	mpu := s.MPU

	// Phase A: consume the response to an in-flight access. The MPU's
	// grant/viol outputs are registers, so their pre-Eval values are
	// the decision latched at the end of the previous cycle.
	var respConsumed, respGrant, respViol, respDMARead bool
	if s.ConsumesResponse() {
		grant := s.Sim.Bool(mpu.OutGrant[0])
		viol := s.Sim.Bool(mpu.OutViol[0])
		op := s.pending
		respConsumed, respGrant, respViol = true, grant, viol
		respDMARead = op.FromDMA && !op.Write
		s.pending = busOp{}
		if op.Marked {
			s.Marked.Resolved = true
			s.Marked.Committed = grant
			s.Marked.Trapped = viol
			s.Marked.RespCycle = s.cycle
		}
		if grant {
			s.commit(op)
		}
		if viol {
			if op.FromDMA {
				s.DMAViol++
			} else {
				s.TrapCount++
				s.cpu.PC = s.Prog.TrapHandler
				// Exception entry escalates privilege so the
				// handler can operate on the MPU (clear the
				// sticky violation state); handlers return to
				// user mode with DROP.
				s.cpu.Priv = true
			}
		}
	}

	// Phase B/C: produce at most one bus request and at most one
	// config write for this cycle.
	var req busOp
	var cfgW struct {
		we    bool
		addr  uint16
		wdata uint16
	}
	if !s.cpu.Halted && !s.pending.Active {
		req, cfgW.we, cfgW.addr, cfgW.wdata = s.execute()
	}
	// The DMA engine is started by firmware after MPU setup, modeled
	// here as: it only issues once the core has dropped privilege.
	if !req.Active && !s.pending.Active && s.Cfg.DMAEnabled && !s.cpu.Priv && s.cycle >= s.dmaNext {
		req = busOp{Active: true, FromDMA: true, Addr: s.dmaAddr}
		s.dmaAddr++
		if s.dmaAddr > s.Cfg.DMALimit {
			s.dmaAddr = s.Cfg.DMABase
		}
		s.dmaNext = s.cycle + s.Cfg.DMAPeriod
	}

	// Phase D: drive the MPU ports. During idle cycles the bus holds
	// its previous address/type values with valid deasserted.
	drive := req
	if !req.Active {
		drive = s.lastReq
		drive.Active = false
	} else {
		s.lastReq = req
	}
	ent := BusTraceEntry{
		Valid: req.Active, Write: drive.Write,
		Priv:  req.Active && !req.FromDMA && s.cpu.Priv,
		Addr:  drive.Addr,
		CfgWe: cfgW.we, CfgPriv: s.cpu.Priv,
		CfgAddr: cfgW.addr, CfgWData: cfgW.wdata,
		RespConsumed: respConsumed, RespGrant: respGrant, RespViol: respViol,
		RespDMARead: respDMARead,
	}
	mpu.ports.drive(s.Sim, &ent)
	if s.LogBusTrace {
		s.BusTrace = append(s.BusTrace, ent)
	}

	if req.Active {
		// The request is captured at this cycle's end; the decision
		// latches one cycle later; the response is readable the
		// cycle after that.
		req.RespCycle = s.cycle + 2
		s.pending = req
		if req.Marked {
			s.Marked.IssueCycle = s.cycle
			s.Marked.DecisionCycle = s.cycle + 1
		}
		if s.LogAccesses {
			s.Accesses = append(s.Accesses, AccessEvent{
				Cycle: s.cycle, Addr: req.Addr, Write: req.Write,
				Priv: !req.FromDMA && s.cpu.Priv, DMA: req.FromDMA, Marked: req.Marked,
			})
		}
	}

	// Phase E: clock the netlist, applying any gate-level injection
	// at the closing edge.
	s.Sim.Eval()
	var flipped []netlist.NodeID
	if inject != nil {
		flipped = inject(func(id netlist.NodeID) bool { return s.Sim.Bool(id) })
	}
	s.Sim.Latch()
	for _, r := range flipped {
		s.Sim.FlipReg(r)
	}
	s.cycle++
}

// DriveBusTrace replays one recorded golden bus-trace entry onto the MPU
// input ports of an arbitrary simulator over the same netlist. Each bit
// is broadcast to every lane, so a lane-batched resume can step 64
// faulty MPU register states against the one golden system trace with
// a single combinational pass per cycle. A SoC must have been built on
// the MPU (WithMPU), which checks its ports.
func (m *MPU) DriveBusTrace(sim *logicsim.Simulator, e *BusTraceEntry) {
	if m.ports == nil {
		panic("soc: DriveBusTrace on an MPU no SoC was built on")
	}
	m.ports.drive(sim, e)
}

// FlipRegsNow flips the stored value of the given MPU registers between
// cycles — the direct-SEU model used for attacks on sequential elements.
func (s *SoC) FlipRegsNow(regs []netlist.NodeID) {
	for _, r := range regs {
		s.Sim.FlipReg(r)
	}
}

// commit applies a granted access to memory / the core. A DMA read's
// grant commits nothing, and its viol only increments DMAViol; DMA
// requests are never marked. So whatever the grant/viol of a DMA read's
// response, consuming it leaves the same core, memory, DMA engine,
// pending and last request, trap count and marked outcome: the
// lane-batched resume relies on this to keep a lane that differs from
// the golden run only at DMA reads. A DMA write would commit memory and
// break it.
func (s *SoC) commit(op busOp) {
	addr := int(op.Addr) % len(s.Mem)
	if op.Write {
		if old := s.Mem[addr]; old != op.WData {
			s.memHash ^= memCellHash(addr, old) ^ memCellHash(addr, op.WData)
			s.Mem[addr] = op.WData
		}
	} else if !op.FromDMA {
		s.cpu.R[op.Reg] = s.Mem[addr]
	}
}

// mix64 is the SplitMix64 finalizer: a cheap, well-distributed 64-bit
// bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// memCellHash gives each (address, value) pair an independent
// pseudo-random signature; the memory image's hash is the XOR over all
// cells, which a write updates in O(1).
func memCellHash(addr int, v uint16) uint64 {
	return mix64(1<<63 | uint64(addr)<<16 | uint64(v))
}

// execute runs one instruction and reports any bus request / config
// write it produces.
func (s *SoC) execute() (req busOp, cfgWe bool, cfgAddr, cfgWData uint16) {
	if s.cpu.PC < 0 || s.cpu.PC >= len(s.Prog.Instrs) {
		s.cpu.Halted = true
		return
	}
	in := s.Prog.Instrs[s.cpu.PC]
	s.cpu.PC++
	r := &s.cpu.R
	switch in.Op {
	case OpNop:
	case OpLdi:
		r[in.A] = in.Imm
	case OpMov:
		r[in.A] = r[in.B]
	case OpAdd:
		r[in.A] += r[in.B]
	case OpSub:
		r[in.A] -= r[in.B]
	case OpAnd:
		r[in.A] &= r[in.B]
	case OpOr:
		r[in.A] |= r[in.B]
	case OpXor:
		r[in.A] ^= r[in.B]
	case OpLd:
		req = busOp{Active: true, Addr: r[in.B], Reg: in.A, Marked: in.Marked}
	case OpSt:
		req = busOp{Active: true, Write: true, Addr: r[in.B], WData: r[in.A], Marked: in.Marked}
	case OpCfgw:
		cfgWe = s.cpu.Priv // unprivileged CFGW is a NOP at the port too
		cfgAddr = in.Imm
		cfgWData = r[in.A]
	case OpDrop:
		s.cpu.Priv = false
	case OpBeq:
		if r[in.A] == r[in.B] {
			s.cpu.PC = int(in.Imm)
		}
	case OpBne:
		if r[in.A] != r[in.B] {
			s.cpu.PC = int(in.Imm)
		}
	case OpJmp:
		s.cpu.PC = int(in.Imm)
	case OpHalt:
		s.cpu.Halted = true
	default:
		panic(fmt.Sprintf("soc: unknown opcode %v", in.Op))
	}
	return
}

// Run steps until the core halts or maxCycles elapse; it returns the
// number of cycles executed in this call.
func (s *SoC) Run(maxCycles int) int {
	start := s.cycle
	for !s.Done() && s.cycle-start < maxCycles {
		s.Step()
	}
	return s.cycle - start
}

// AttackSucceeded reports the paper's success condition: the marked
// illegal access took effect and the responding mechanism did not fire
// for it.
func (s *SoC) AttackSucceeded() bool {
	return s.Marked.Resolved && s.Marked.Committed && !s.Marked.Trapped
}

// Arch is the SoC state outside the memory image and the MPU: the
// core, the in-flight and last bus requests, the DMA engine, the trap
// counters, the marked-access outcome, and the memory image's
// incremental hash. It is comparable, so a resume can check it against
// the golden run's Arch at the same cycle with ==.
type Arch struct {
	CPU       cpuState
	Pending   busOp
	LastReq   busOp
	DMANext   int
	DMAAddr   uint16
	TrapCount int
	DMAViol   int
	Marked    MarkedOutcome
	MemHash   uint64
}

// Arch returns the current architectural state.
func (s *SoC) Arch() Arch {
	return Arch{
		CPU:       s.cpu,
		Pending:   s.pending,
		LastReq:   s.lastReq,
		DMANext:   s.dmaNext,
		DMAAddr:   s.dmaAddr,
		TrapCount: s.TrapCount,
		DMAViol:   s.DMAViol,
		Marked:    s.Marked,
		MemHash:   s.memHash,
	}
}

// ConsumesResponse reports whether the next Step reads the MPU's
// grant/viol outputs (lane 0) to complete an in-flight access. Those
// reads are the only way the MPU's state reaches the core, memory and
// DMA.
func (s *SoC) ConsumesResponse() bool {
	return s.pending.Active && s.cycle >= s.pending.RespCycle
}

// Checkpoint is a full architectural + netlist state snapshot; the
// golden run dumps these so fault-attack runs can restart near the
// injection cycle instead of from reset.
type Checkpoint struct {
	Arch
	Cycle   int
	Mem     []uint16
	MPURegs []uint64
}

// Snapshot captures the full state.
func (s *SoC) Snapshot() *Checkpoint {
	return &Checkpoint{
		Arch:    s.Arch(),
		Cycle:   s.cycle,
		Mem:     append([]uint16(nil), s.Mem...),
		MPURegs: s.Sim.RegState(),
	}
}

// Restore rewinds the SoC to a snapshot.
func (s *SoC) Restore(cp *Checkpoint) {
	s.cycle = cp.Cycle
	s.cpu = cp.CPU
	s.pending = cp.Pending
	s.lastReq = cp.LastReq
	s.dmaNext = cp.DMANext
	s.dmaAddr = cp.DMAAddr
	s.TrapCount = cp.TrapCount
	s.DMAViol = cp.DMAViol
	s.Marked = cp.Marked
	s.memHash = cp.MemHash
	copy(s.Mem, cp.Mem)
	s.Sim.SetRegState(cp.MPURegs)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

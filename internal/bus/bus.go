// Package bus is the memory-mapped TLM substrate of the case-study SoC
// (paper §IV-C): an address-routed interconnect with blocking transport,
// memory and register-file targets, and an initiator helper that applies
// TLM-2.0-style quantum-keeper temporal decoupling. This is the side of
// the SoC the paper calls "communications done by TLM transactions ...
// temporally decoupled using existing methods".
package bus

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/td"
)

// Cmd is a transaction command.
type Cmd int

const (
	// Read copies from the target into Data.
	Read Cmd = iota
	// Write copies Data into the target.
	Write
)

// String names the command.
func (c Cmd) String() string {
	if c == Read {
		return "read"
	}
	return "write"
}

// Transaction is a word-granular generic payload: Addr is a word address,
// Data the word burst to move.
type Transaction struct {
	Cmd  Cmd
	Addr uint32
	Data []uint32
}

// Target handles transactions. BTransport follows TLM b_transport: it runs
// in the initiator process's context and annotates its latency onto the
// caller with Inc, so decoupled initiators keep decoupling across the
// interconnect.
type Target interface {
	// BTransport executes t; addr is already target-relative.
	BTransport(p *sim.Process, t *Transaction)
}

// mapping binds a word-address window to a target.
type mapping struct {
	base, size uint32
	t          Target
	name       string
}

// Bus routes transactions to targets by address and charges a per-access
// routing latency.
type Bus struct {
	k       *sim.Kernel
	name    string
	latency sim.Time
	maps    []mapping
	// Accesses counts routed transactions.
	accesses uint64
}

// NewBus creates a bus with the given per-transaction routing latency.
func NewBus(k *sim.Kernel, name string, latency sim.Time) *Bus {
	if latency < 0 {
		panic(fmt.Sprintf("bus: %s: negative latency", name))
	}
	return &Bus{k: k, name: name, latency: latency}
}

// Name returns the bus name.
func (b *Bus) Name() string { return b.name }

// Accesses returns the number of transactions routed so far.
func (b *Bus) Accesses() uint64 { return b.accesses }

// Map binds [base, base+size) to target t. Windows must not overlap.
func (b *Bus) Map(name string, base, size uint32, t Target) {
	if size == 0 {
		panic(fmt.Sprintf("bus: %s: empty window %q", b.name, name))
	}
	for _, m := range b.maps {
		if base < m.base+m.size && m.base < base+size {
			panic(fmt.Sprintf("bus: %s: window %q [%#x,%#x) overlaps %q [%#x,%#x)",
				b.name, name, base, base+size, m.name, m.base, m.base+m.size))
		}
	}
	b.maps = append(b.maps, mapping{base: base, size: size, t: t, name: name})
	sort.Slice(b.maps, func(i, j int) bool { return b.maps[i].base < b.maps[j].base })
}

// BTransport routes t to the mapped target, charging the bus latency onto
// the calling process. It panics on unmapped addresses (a modeling error).
//
// The whole burst is routed as one transaction: the payload slice is
// handed through untouched (targets move it with copy and one lumped
// latency Inc), and the address is rebased in place for the duration of
// the downstream call instead of copying the transaction — the bulk
// transfer path allocates nothing per hop.
func (b *Bus) BTransport(p *sim.Process, t *Transaction) {
	end := t.Addr + uint32(len(t.Data))
	i := sort.Search(len(b.maps), func(i int) bool {
		return b.maps[i].base+b.maps[i].size > t.Addr
	})
	if i == len(b.maps) || t.Addr < b.maps[i].base || end > b.maps[i].base+b.maps[i].size {
		panic(fmt.Sprintf("bus: %s: %v at unmapped/split address %#x..%#x", b.name, t.Cmd, t.Addr, end))
	}
	b.accesses++
	p.Inc(b.latency)
	abs := t.Addr
	t.Addr = abs - b.maps[i].base
	b.maps[i].t.BTransport(p, t)
	t.Addr = abs
}

var _ Target = (*Bus)(nil) // buses can cascade

// Memory is a word-addressed RAM target with per-word access latencies.
type Memory struct {
	words    []uint32
	readLat  sim.Time
	writeLat sim.Time
}

// NewMemory creates a memory of size words.
func NewMemory(size uint32, readLat, writeLat sim.Time) *Memory {
	return &Memory{words: make([]uint32, size), readLat: readLat, writeLat: writeLat}
}

// Size returns the capacity in words.
func (m *Memory) Size() uint32 { return uint32(len(m.words)) }

// Peek reads a word without timing (testbench access).
func (m *Memory) Peek(addr uint32) uint32 { return m.words[addr] }

// Poke writes a word without timing (testbench access).
func (m *Memory) Poke(addr uint32, v uint32) { m.words[addr] = v }

// BTransport implements Target with len(Data) × per-word latency.
func (m *Memory) BTransport(p *sim.Process, t *Transaction) {
	if int(t.Addr)+len(t.Data) > len(m.words) {
		panic(fmt.Sprintf("bus: memory access beyond size: %#x+%d > %d", t.Addr, len(t.Data), len(m.words)))
	}
	switch t.Cmd {
	case Read:
		p.Inc(m.readLat * sim.Time(len(t.Data)))
		copy(t.Data, m.words[t.Addr:])
	case Write:
		p.Inc(m.writeLat * sim.Time(len(t.Data)))
		copy(m.words[t.Addr:], t.Data)
	}
}

var _ Target = (*Memory)(nil)

// RegisterFile is a small control/status target. Reads and writes go
// through optional callbacks so device models can implement side effects
// (start bits, status registers, FIFO level registers).
type RegisterFile struct {
	regs []uint32
	lat  sim.Time
	// OnWrite, if non-nil, intercepts writes to register idx; returning
	// false suppresses the default store.
	OnWrite func(p *sim.Process, idx int, v uint32) bool
	// OnRead, if non-nil, overrides reads from register idx.
	OnRead func(p *sim.Process, idx int) (uint32, bool)
}

// NewRegisterFile creates a register file with n registers and a fixed
// per-access latency.
func NewRegisterFile(n int, lat sim.Time) *RegisterFile {
	return &RegisterFile{regs: make([]uint32, n), lat: lat}
}

// Get reads register idx without timing or callbacks.
func (r *RegisterFile) Get(idx int) uint32 { return r.regs[idx] }

// Set writes register idx without timing or callbacks.
func (r *RegisterFile) Set(idx int, v uint32) { r.regs[idx] = v }

// BTransport implements Target register by register.
func (r *RegisterFile) BTransport(p *sim.Process, t *Transaction) {
	if int(t.Addr)+len(t.Data) > len(r.regs) {
		panic(fmt.Sprintf("bus: register access beyond file: %#x+%d > %d", t.Addr, len(t.Data), len(r.regs)))
	}
	p.Inc(r.lat * sim.Time(len(t.Data)))
	for i := range t.Data {
		idx := int(t.Addr) + i
		switch t.Cmd {
		case Read:
			if r.OnRead != nil {
				if v, ok := r.OnRead(p, idx); ok {
					t.Data[i] = v
					continue
				}
			}
			t.Data[i] = r.regs[idx]
		case Write:
			if r.OnWrite != nil && !r.OnWrite(p, idx, t.Data[i]) {
				continue
			}
			r.regs[idx] = t.Data[i]
		}
	}
}

var _ Target = (*RegisterFile)(nil)

// Initiator is a convenience front end for a thread process issuing bus
// transactions under quantum-keeper decoupling, the "existing methods" the
// paper uses for the memory-mapped side.
type Initiator struct {
	p   *sim.Process
	bus *Bus
	qk  *td.QuantumKeeper

	// word and tx are reused across single-word accesses so the polling
	// hot path (status and FIFO-level reads) allocates nothing.
	word [1]uint32
	tx   Transaction
}

// NewInitiator binds process p to bus b with the given quantum.
func NewInitiator(p *sim.Process, b *Bus, quantum sim.Time) *Initiator {
	return &Initiator{p: p, bus: b, qk: td.NewQuantumKeeper(p, quantum)}
}

// ReadWord reads one word.
func (in *Initiator) ReadWord(addr uint32) uint32 {
	in.word[0] = 0
	in.transport(Read, addr, in.word[:])
	return in.word[0]
}

// WriteWord writes one word.
func (in *Initiator) WriteWord(addr uint32, v uint32) {
	in.word[0] = v
	in.transport(Write, addr, in.word[:])
}

// ReadBurst fills data from addr in one bus transaction.
func (in *Initiator) ReadBurst(addr uint32, data []uint32) {
	in.transport(Read, addr, data)
}

// WriteBurst stores data at addr in one bus transaction.
func (in *Initiator) WriteBurst(addr uint32, data []uint32) {
	in.transport(Write, addr, data)
}

func (in *Initiator) transport(cmd Cmd, addr uint32, data []uint32) {
	in.tx = Transaction{Cmd: cmd, Addr: addr, Data: data}
	in.bus.BTransport(in.p, &in.tx)
	in.tx.Data = nil // do not pin the caller's burst buffer
	in.checkSync()
}

func (in *Initiator) checkSync() {
	if in.qk.NeedSync() {
		in.qk.Sync()
	}
}

package cpu

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
)

// checkWindowMasks rebuilds every window mask from the entries' flags and
// fails t unless the core's masks agree with it and the window's seqs are
// contiguous and end at nextSeq (so an entry's mask bit is
// seq - window[0].seq).
func checkWindowMasks(t testing.TB, c *Core) {
	t.Helper()
	if len(c.window) > 64 {
		t.Fatalf("core %d: window holds %d entries, more than the mask width", c.ID, len(c.window))
	}
	var want [5]uint64 // ready, flight, miss, store, wait
	for i, e := range c.window {
		if s := c.window[0].seq + uint64(i); e.seq != s {
			t.Fatalf("core %d: window[%d].seq = %d, want %d", c.ID, i, e.seq, s)
		}
		bit := uint64(1) << i
		if !e.issued && !e.done && !e.isSer && e.src[0].ready && e.src[1].ready {
			want[0] |= bit
		}
		if e.issued && !e.done && !e.missWait {
			want[1] |= bit
		}
		if e.missWait {
			want[2] |= bit
		}
		if e.isStore() || e.isCacheOp() {
			want[3] |= bit
		}
		if !e.src[0].ready || !e.src[1].ready {
			want[4] |= bit
		}
	}
	if n := len(c.window); n > 0 && c.window[n-1].seq != c.nextSeq {
		t.Fatalf("core %d: youngest seq %d, nextSeq %d", c.ID, c.window[n-1].seq, c.nextSeq)
	}
	got := [5]uint64{c.readyMask, c.flightMask, c.missMask, c.storeMask, c.waitMask}
	names := [5]string{"ready", "flight", "miss", "store", "wait"}
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("core %d: %s mask %#x, rebuilt from the window %#x", c.ID, names[k], got[k], want[k])
		}
	}
}

// tickChecked advances every core of r one cycle, checking each core's
// window masks after its Tick.
func (r *testRig) tickChecked(t *testing.T) {
	t.Helper()
	for _, c := range r.cores {
		c.Tick(r.now)
		checkWindowMasks(t, c)
	}
	r.sys.Tick(r.now)
	r.now++
}

func TestWindowMasksThroughMispredicts(t *testing.T) {
	// Alternating branches squash often; the loop body mixes stores,
	// forwarded and missing loads, a divide and a cache-op so every mask
	// is populated when a squash truncates the window.
	p := asm.MustAssemble(`
	la s1, buf
	li t0, 300
loop:
	andi t2, t0, 1
	beqz t2, even
	st t0, 0(s1)
	ld t3, 0(s1)
	ld t4, 64(s1)
	add t1, t1, t3
	div t5, t1, t0
	dcbi 128(s1)
even:
	addi t0, t0, -1
	bnez t0, loop
	fence
	out t1
	halt
	.data
	.align 64
buf:	.space 256
	`, textBase, 0x100000)
	r := newRig(t, 1, p)
	r.start(0, 0, 1, p.Entry)
	c := r.cores[0]
	for i := 0; i < 1_000_000 && c.Running(); i++ {
		r.tickChecked(t)
	}
	if c.Fault != nil || !c.Halted {
		t.Fatalf("halted=%v fault=%v", c.Halted, c.Fault)
	}
	if got, want := c.Console[0], uint64(150*150); got != want { // odd t0 in 1..299
		t.Fatalf("sum %d, want %d", got, want)
	}
	if c.Mispredicts < 50 {
		t.Fatalf("only %d mispredicts: squashes barely exercised", c.Mispredicts)
	}
}

func TestWindowMasksMTCore(t *testing.T) {
	// Two contexts of one physical core increment a shared counter with
	// LL/SC: shared-L1 misses, sibling reservation breaks, SC failures and
	// retry-loop mispredicts, all with masks checked per context.
	p := asm.MustAssemble(`
	la t0, v
retry:
	ll t1, 0(t0)
	addi t1, t1, 1
	sc t2, t1, 0(t0)
	beqz t2, retry
	addi s0, s0, 1
	li t3, 50
	blt s0, t3, retry
	fence
	halt
	.data
	.align 64
v:	.quad 0
	`, textBase, 0x100000)
	sys := mem.NewSystem(mem.DefaultConfig(1))
	for _, seg := range p.Segments {
		sys.Mem.WriteBytes(seg.Addr, seg.Data)
	}
	mt := NewMT(DefaultConfig(), 0, 0, 2, sys, nil)
	for i, c := range mt.Contexts {
		c.Reset(p.Entry, i, 2, 0x0800_0000+uint64(i+1)*0x40000-64)
	}
	var now uint64
	for ; now < 1_000_000 && mt.Running(); now++ {
		mt.Tick(now)
		for _, c := range mt.Contexts {
			checkWindowMasks(t, c)
		}
		sys.Tick(now)
	}
	for _, c := range mt.Contexts {
		if c.Fault != nil || !c.Halted {
			t.Fatalf("context %d: halted=%v fault=%v", c.ID, c.Halted, c.Fault)
		}
	}
	if got := sys.Mem.ReadUint64(p.MustSymbol("v")); got != 100 {
		t.Fatalf("counter %d, want 100", got)
	}
}

func TestFaultBroadcastIssuesConsumerSameCycle(t *testing.T) {
	// The misaligned load faults inside issueStage and broadcasts its
	// (zero) result; the dependent addi, unready when the stage began,
	// must issue in that same cycle.
	p := asm.MustAssemble(`
	li t0, 0x100001
	ld t1, 0(t0)
	addi t2, t1, 1
	halt
	`, textBase, 0x100000)
	r := newRig(t, 1, p)
	r.start(0, 0, 1, p.Entry)
	c := r.cores[0]
	for i := 0; i < 1000 && c.Running(); i++ {
		var ld *entry
		for _, e := range c.window {
			if e.in.Op == isa.LD {
				ld = e
			}
		}
		wasIssued := ld != nil && ld.issued
		c.Tick(r.now)
		r.sys.Tick(r.now)
		r.now++
		if ld == nil || wasIssued || !ld.issued {
			continue
		}
		if ld.fault == nil {
			t.Fatal("misaligned load issued without a fault")
		}
		var add *entry // li may expand to an addi of its own, older than ld
		for _, e := range c.window {
			if e.in.Op == isa.ADDI && e.seq > ld.seq {
				add = e
				break
			}
		}
		if add == nil {
			t.Fatal("dependent addi not in the window when the load issued")
		}
		if !add.issued {
			t.Fatal("addi woken by the load's fault broadcast did not issue in the same cycle")
		}
		return
	}
	t.Fatal("load never issued")
}

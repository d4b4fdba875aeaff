package dist

import (
	"sort"

	"repro/internal/comm"
	"repro/internal/la"
	"repro/internal/obs"
)

// CSR is a block-row distributed sparse matrix: rank r owns the
// contiguous row range Partition.Range(r) of a square global matrix and
// the matching slab of every distributed vector. Apply performs the
// classic ghost/halo exchange — each rank ships exactly the owned
// entries its neighbours' sparsity patterns reference, then runs the
// local SpMV over an operand buffer holding [owned | ghost] values.
//
// The operand buffer is retained between calls: after an Apply it still
// holds the owned and ghost values of the last operand, which is what
// lets ApplyLocal recompute the product with zero communication (the
// SKP correction path) and lets LocalColSums-based checksums validate
// against exactly what the kernel consumed.
//
// A CSR is a CSRPlan bound to one rank's communicator: the plan holds
// everything derived from the matrix, the CSR only its own operand and
// halo buffers. Two CSRs bound from the same plan therefore use the
// identical column remap, making their products bitwise comparable.
type CSR struct {
	plan *CSRPlan
	c    *comm.Comm

	xbuf []float64 // operand buffer: [owned | ghosts], persists across Applies
	halo []float64 // pack and landing scratch (Send and RecvInto copy the payload)
}

// CSRPlan is the immutable, communication-free part of one rank's CSR
// slab: the local rows with remapped columns and the halo send/receive
// plan. It is a pure function of (matrix, rank count, rank), holds no
// communicator and no per-Apply state, and is never written after
// PlanCSR returns, so one plan may be bound by any number of worlds,
// concurrently — which is what lets a setup cache share it across runs.
//
// Construction is deterministic: every rank derives both its receive
// plan and its neighbours' needs by inspecting the replicated global
// sparsity directly (the SPMD convention of this codebase), so the
// shipments line up without any plan-exchange communication.
type CSRPlan struct {
	pt     Partition
	rank   int
	lo, hi int // owned global row range
	rows   int // global dimension

	// Local slab in CSR form with remapped columns: owned column j
	// maps to j-lo, ghost columns map past the owned range in
	// ascending global order.
	rowPtr []int
	colIdx []int
	val    []float64

	nghost  int     // ghost columns, the tail of the operand buffer
	normInf float64 // global infinity norm, precomputed

	sends []haloSend
	recvs []haloRecv
}

// haloSend lists the owned entries one neighbour's slab references.
type haloSend struct {
	rank int
	idx  []int // local owned indices, ascending global order
}

// haloRecv lists where one neighbour's shipment lands in the operand
// buffer.
type haloRecv struct {
	rank int
	pos  []int // operand-buffer positions, ascending global order (matches sender)
}

// NewCSR builds rank c.Rank()'s slab of the square global matrix a:
// PlanCSR(a, c.Size(), c.Rank()).Bind(c). Every rank must call it with
// the same matrix. Panics if a is not square or the world has more
// ranks than rows.
func NewCSR(c *comm.Comm, a *la.CSR) *CSR {
	return PlanCSR(a, c.Size(), c.Rank()).Bind(c)
}

// PlanCSR derives rank's slab and halo plan of the square global
// matrix a distributed over nranks ranks. The plan copies what it
// needs from a; a may be mutated afterwards without affecting it.
// Panics if a is not square, nranks exceeds its rows, or rank is out
// of range.
func PlanCSR(a *la.CSR, nranks, rank int) *CSRPlan {
	if a.Rows != a.Cols {
		panic("dist: NewCSR needs a square matrix")
	}
	checkRanks(nranks, a.Rows, "matrix")
	if rank < 0 || rank >= nranks {
		panic("dist: plan rank out of range")
	}
	m := &CSRPlan{
		pt:   Partition{N: a.Rows, P: nranks},
		rank: rank,
		rows: a.Rows,
	}
	m.lo, m.hi = m.pt.Range(rank)
	nl := m.hi - m.lo

	// Ghost columns: referenced by my rows, owned elsewhere. Sorted so
	// the remap is deterministic and the per-owner positions ascend.
	seen := make(map[int]bool)
	var ghosts []int
	for i := m.lo; i < m.hi; i++ {
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			if j := a.ColIdx[q]; (j < m.lo || j >= m.hi) && !seen[j] {
				seen[j] = true
				ghosts = append(ghosts, j)
			}
		}
	}
	sort.Ints(ghosts)
	ghostPos := make(map[int]int, len(ghosts))
	for k, j := range ghosts {
		ghostPos[j] = nl + k
	}

	// Local slab with remapped columns, preserving in-row entry order.
	m.rowPtr = make([]int, nl+1)
	for i := 0; i < nl; i++ {
		g := m.lo + i
		for q := a.RowPtr[g]; q < a.RowPtr[g+1]; q++ {
			j := a.ColIdx[q]
			if j >= m.lo && j < m.hi {
				m.colIdx = append(m.colIdx, j-m.lo)
			} else {
				m.colIdx = append(m.colIdx, ghostPos[j])
			}
			m.val = append(m.val, a.Val[q])
		}
		m.rowPtr[i+1] = len(m.colIdx)
	}
	m.nghost = len(ghosts)
	m.normInf = a.NormInf()

	// Receive plan: my ghosts grouped by owning rank.
	for k := 0; k < len(ghosts); {
		owner := m.pt.Owner(ghosts[k])
		var pos []int
		for k < len(ghosts) && m.pt.Owner(ghosts[k]) == owner {
			pos = append(pos, nl+k)
			k++
		}
		m.recvs = append(m.recvs, haloRecv{rank: owner, pos: pos})
	}

	// Send plan: scan each other rank's rows for references into my
	// range. The same deterministic derivation runs on the peer's side
	// for its receive plan, so the shipments line up without any
	// plan-exchange communication.
	for r := 0; r < nranks; r++ {
		if r == rank {
			continue
		}
		rlo, rhi := m.pt.Range(r)
		need := make(map[int]bool)
		for i := rlo; i < rhi; i++ {
			for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
				if j := a.ColIdx[q]; j >= m.lo && j < m.hi {
					need[j] = true
				}
			}
		}
		if len(need) == 0 {
			continue
		}
		idx := make([]int, 0, len(need))
		for j := range need {
			idx = append(idx, j-m.lo)
		}
		sort.Ints(idx)
		m.sends = append(m.sends, haloSend{rank: r, idx: idx})
	}
	return m
}

// Bind returns the plan's operator on communicator c, with fresh
// operand and halo buffers of its own. Panics unless c is the plan's
// rank in a world of the plan's size.
func (p *CSRPlan) Bind(c *comm.Comm) *CSR {
	if c.Size() != p.pt.P || c.Rank() != p.rank {
		panic("dist: CSR plan bound to a different rank or world size")
	}
	n := 0
	for _, s := range p.sends {
		n = max(n, len(s.idx))
	}
	for _, r := range p.recvs {
		n = max(n, len(r.pos))
	}
	return &CSR{plan: p, c: c, xbuf: make([]float64, p.hi-p.lo+p.nghost), halo: make([]float64, n)}
}

// Apply computes y = A·x for this rank's slab: halo exchange (one
// message to each neighbour whose slab references owned entries), then
// the local SpMV. Errors from the exchange — comm.ErrRankFailed on a
// survivor, comm.ErrKilled on the failed rank — propagate unchanged.
func (m *CSR) Apply(x, y []float64) error {
	p := m.plan
	nl := p.hi - p.lo
	la.CheckLen("x", x, nl)
	la.CheckLen("y", y, nl)
	copy(m.xbuf[:nl], x)
	halo, mark := m.c.SpanStart(), m.c.WaitMark()
	// Sends are buffered and never block, so posting all sends before
	// any receive cannot deadlock even when every rank applies at once.
	for _, s := range p.sends {
		buf := m.halo[:len(s.idx)]
		for q, i := range s.idx {
			buf[q] = x[i]
		}
		if err := m.c.Send(s.rank, tagCSRHalo, buf); err != nil {
			return err
		}
	}
	for _, rcv := range p.recvs {
		buf := m.halo[:len(rcv.pos)]
		if _, err := m.c.RecvInto(rcv.rank, tagCSRHalo, buf); err != nil {
			return err
		}
		for q, pos := range rcv.pos {
			m.xbuf[pos] = buf[q]
		}
	}
	m.c.SpanEndWait(obs.PhaseHaloExchange, halo, mark)
	m.ApplyLocal(y)
	return nil
}

// ApplyLocal recomputes y = A·x over the operand buffer left by the
// last Apply, with zero communication: the owned and ghost values are
// still valid, so a detected transient fault in the local kernel is
// repaired without touching the network (the SKP correction path).
func (m *CSR) ApplyLocal(y []float64) {
	start := m.c.SpanStart()
	p := m.plan
	nl := p.hi - p.lo
	la.CheckLen("y", y, nl)
	for i := 0; i < nl; i++ {
		s := 0.0
		for q := p.rowPtr[i]; q < p.rowPtr[i+1]; q++ {
			s += p.val[q] * m.xbuf[p.colIdx[q]]
		}
		y[i] = s
	}
	m.c.Compute(2 * float64(len(p.val)))
	m.c.SpanEnd(obs.PhaseSpMV, start)
}

// XBuffer returns the live operand buffer [owned | ghosts] of the last
// Apply. Checksum validators read it to reproduce exactly what the
// local kernel consumed.
func (m *CSR) XBuffer() []float64 { return m.xbuf }

// LocalColSums returns the column sums eᵀA of the local slab in operand
// -buffer coordinates (length len(XBuffer())). Because block-row
// checksums decompose over ranks, dot(LocalColSums, XBuffer) equals
// sum(y) for a clean local product — the zero-communication ABFT
// identity skp.DistCheckedOp validates.
func (m *CSR) LocalColSums() []float64 {
	cs := make([]float64, len(m.xbuf))
	for q, j := range m.plan.colIdx {
		cs[j] += m.plan.val[q]
	}
	return cs
}

// LocalLen implements Operator.
func (m *CSR) LocalLen() int { return m.plan.hi - m.plan.lo }

// GlobalLen implements Operator.
func (m *CSR) GlobalLen() int { return m.plan.rows }

// NormInf implements Operator: the exact global infinity norm.
func (m *CSR) NormInf() float64 { return m.plan.normInf }

// Lo returns the first global row this rank owns.
func (m *CSR) Lo() int { return m.plan.lo }

// Scatter returns a fresh copy of this rank's slab of a replicated
// global vector.
func (m *CSR) Scatter(global []float64) []float64 {
	la.CheckLen("global", global, m.plan.rows)
	return la.Copy(global[m.plan.lo:m.plan.hi])
}

// Gather assembles the distributed vector whose local slab is local
// into a full global vector on every rank (rank-order concatenation is
// global order for a block-row layout). One Allgather.
func (m *CSR) Gather(local []float64) ([]float64, error) {
	la.CheckLen("local", local, m.LocalLen())
	return m.c.Allgather(local)
}

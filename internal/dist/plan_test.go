package dist

import (
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/la"
	"repro/internal/problems"
)

// applyBitwise applies m to x's slab and reports whether the product
// equals want's slab bit for bit.
func applyBitwise(t *testing.T, m *CSR, xg, want []float64) bool {
	t.Helper()
	y := make([]float64, m.LocalLen())
	if err := m.Apply(m.Scatter(xg), y); err != nil {
		t.Error(err)
		return false
	}
	for i, v := range y {
		if v != want[m.Lo()+i] {
			return false
		}
	}
	return true
}

// TestPlanBindMatchesNewCSR: an operator bound from PlanCSR has the
// layout, norm, operand buffer, column sums and product of NewCSR's,
// bit for bit, over rank counts {1, 2, 3, 7, 8}. Both products also
// equal the serial CSR product bitwise: the local slab keeps every
// row's entry order, so the sums run in the serial order.
func TestPlanBindMatchesNewCSR(t *testing.T) {
	cases := map[string]*la.CSR{
		"convdiff": problems.ConvDiff2D(13, 11, 8, 3),
		"random":   randomSparse(145, 99),
	}
	for name, a := range cases {
		xg := testVector(a.Rows)
		want := a.MatVec(xg, nil)
		for _, p := range rankCounts {
			err := comm.Run(testCfg(p), func(c *comm.Comm) error {
				fresh := NewCSR(c, a)
				bound := PlanCSR(a, p, c.Rank()).Bind(c)
				if !applyBitwise(t, fresh, xg, want) || !applyBitwise(t, bound, xg, want) {
					t.Errorf("%s p=%d rank %d: product differs from the serial one bitwise", name, p, c.Rank())
				}
				if bound.Lo() != fresh.Lo() || bound.LocalLen() != fresh.LocalLen() ||
					bound.GlobalLen() != fresh.GlobalLen() || bound.NormInf() != fresh.NormInf() {
					t.Errorf("%s p=%d rank %d: layout or norm differs", name, p, c.Rank())
				}
				if !bitwiseEqual(bound.XBuffer(), fresh.XBuffer()) || !bitwiseEqual(bound.LocalColSums(), fresh.LocalColSums()) {
					t.Errorf("%s p=%d rank %d: operand buffer or column sums differ", name, p, c.Rank())
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
		}
	}
}

func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSharedPlanConcurrentWorlds: one plan per rank, bound by two
// worlds applying concurrently. Every product stays exact, and under
// -race the run proves Apply never writes plan state.
func TestSharedPlanConcurrentWorlds(t *testing.T) {
	const p = 3
	a := randomSparse(97, 5)
	plans := make([]*CSRPlan, p)
	for r := range plans {
		plans[r] = PlanCSR(a, p, r)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			xg := testVector(a.Rows)
			for i := range xg {
				xg[i] += float64(w)
			}
			want := a.MatVec(xg, nil)
			err := comm.Run(testCfg(p), func(c *comm.Comm) error {
				m := plans[c.Rank()].Bind(c)
				for k := 0; k < 20; k++ {
					if !applyBitwise(t, m, xg, want) {
						t.Errorf("world %d rank %d apply %d: product differs", w, c.Rank(), k)
						break
					}
				}
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
}

// TestBindRejectsForeignRank: a plan binds only to its own rank of a
// world of its own size.
func TestBindRejectsForeignRank(t *testing.T) {
	a := randomSparse(20, 1)
	plan := PlanCSR(a, 2, 0)
	err := comm.Run(testCfg(3), func(c *comm.Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		defer func() {
			if recover() == nil {
				t.Error("binding a 2-rank plan in a 3-rank world did not panic")
			}
		}()
		plan.Bind(c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

package spmv

import "fmt"

// BCSR is the r x c block compressed sparse row format of Figure 11: every
// block with at least one non-zero is stored densely (padding with explicit
// zeros), blocks are laid out contiguously in Val, BColIdx holds the first
// column index of each block, and BRowStart points at block-row boundaries
// in BColIdx.
//
// Blocking trades storage and flops (the fill ratio) for locality and index
// overhead: indices point at blocks instead of individual values, the
// source vector element u[j] is re-used across the r rows of a block, and
// values stream contiguously.
type BCSR struct {
	Rows, Cols int // logical (unpadded) dimensions
	R, C       int // block dimensions
	BRowStart  []int
	BColIdx    []int
	Val        []float64 // len = numBlocks*R*C, blocks row-major
	// OrigNNZ is the non-zero count of the source matrix, the denominator
	// of the fill ratio and the numerator of "true" Mflop/s.
	OrigNNZ int
}

// StoredValues returns the stored-value count including explicit zeros.
func (b *BCSR) StoredValues() int { return len(b.Val) }

// FillRatio returns stored values (original non-zeros plus filled zeros)
// divided by original non-zeros — Table 5's x3.
func (b *BCSR) FillRatio() float64 {
	if b.OrigNNZ == 0 {
		return 1
	}
	return float64(b.StoredValues()) / float64(b.OrigNNZ)
}

// ToBCSR blocks m into r x c tiles. Rows and columns are implicitly padded
// to multiples of r and c; padding never stores blocks because padded
// regions hold no non-zeros.
func ToBCSR(m *CSR, r, c int) *BCSR {
	if r < 1 || c < 1 {
		panic(fmt.Sprintf("spmv: invalid block size %dx%d", r, c))
	}
	b := &BCSR{Rows: m.Rows, Cols: m.Cols, R: r, C: c, OrigNNZ: m.NNZ()}
	numBlockRows := (m.Rows + r - 1) / r
	b.BRowStart = make([]int, numBlockRows+1)

	// at is non-zero for each block column the current block row occupies;
	// once the row's blocks are laid out it holds the block's index in
	// BColIdx plus one. Each block row clears only the entries it set.
	at := make([]int, (m.Cols+c-1)/c)
	var cols []int
	// occupied lists block row bi's occupied block columns in first-seen
	// order, marking each in at.
	occupied := func(bi int) []int {
		cols = cols[:0]
		for i := bi * r; i < min((bi+1)*r, m.Rows); i++ {
			idx, _ := m.Row(i)
			for _, j := range idx {
				if bj := j / c; at[bj] == 0 {
					at[bj] = 1
					cols = append(cols, bj)
				}
			}
		}
		return cols
	}
	unmark := func(cols []int) {
		for _, bj := range cols {
			at[bj] = 0
		}
	}

	// Counting pass: block-row boundaries, so BColIdx and Val are allocated
	// once at their exact size.
	for bi := 0; bi < numBlockRows; bi++ {
		cols := occupied(bi)
		b.BRowStart[bi+1] = b.BRowStart[bi] + len(cols)
		unmark(cols)
	}
	numBlocks := b.BRowStart[numBlockRows]
	b.BColIdx = make([]int, numBlocks)
	b.Val = make([]float64, numBlocks*r*c)

	// Fill pass: lay blocks out in ascending block-column order, then
	// scatter values into them.
	for bi := 0; bi < numBlockRows; bi++ {
		cols := occupied(bi)
		sortInts(cols)
		base := b.BRowStart[bi]
		for pos, bj := range cols {
			at[bj] = base + pos + 1
			b.BColIdx[base+pos] = bj * c
		}
		rowLo := bi * r
		for i := rowLo; i < min(rowLo+r, m.Rows); i++ {
			idx, vals := m.Row(i)
			for k, j := range idx {
				blk := at[j/c] - 1
				b.Val[blk*r*c+(i-rowLo)*c+j%c] = vals[k]
			}
		}
		unmark(cols)
	}
	return b
}

// sortInts is a small insertion sort: block rows rarely hold more than a few
// hundred blocks, and avoiding sort.Ints keeps conversion allocation-free on
// the hot path.
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// MulVec computes v = v + A*u block by block, the computation the timing
// simulator models. Results match CSR.MulVec exactly (explicit zeros
// multiply into nothing).
func (b *BCSR) MulVec(u, v []float64) {
	if len(u) != b.Cols || len(v) != b.Rows {
		panic("spmv: BCSR MulVec dimension mismatch")
	}
	numBlockRows := len(b.BRowStart) - 1
	for bi := 0; bi < numBlockRows; bi++ {
		rowLo := bi * b.R
		for blk := b.BRowStart[bi]; blk < b.BRowStart[bi+1]; blk++ {
			colLo := b.BColIdx[blk]
			base := blk * b.R * b.C
			for dr := 0; dr < b.R; dr++ {
				i := rowLo + dr
				if i >= b.Rows {
					break
				}
				sum := v[i]
				for dc := 0; dc < b.C; dc++ {
					j := colLo + dc
					if j >= b.Cols {
						break
					}
					sum += b.Val[base+dr*b.C+dc] * u[j]
				}
				v[i] = sum
			}
		}
	}
}

package sparse

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// FactorParallel is Factor with the row-parallel phases executed on real
// goroutines — the live version of the transformation that Figure 7
// simulates.  With full=false (the "partial" analysis) only the
// structurally read-only heuristic and pivot-search phases fan out; with
// full=true the fill-in and elimination phases do too, with per-column
// locks guarding the shared column lists during fill-in.  The pivot order
// is a deterministic total order, so the returned factors are bitwise
// identical to Factor's.
func (m *Matrix) FactorParallel(pool *parallel.Pool, full bool) (*LU, error) {
	w := m.Clone()
	n := w.N
	lu := &LU{
		M:        w,
		PRow:     make([]int, 0, n),
		PCol:     make([]int, 0, n),
		RowOrder: make([]int, n),
		ColOrder: make([]int, n),
		Trace:    &Trace{N: n, NNZ0: m.NNZ()},
	}
	for i := range lu.RowOrder {
		lu.RowOrder[i] = -1
		lu.ColOrder[i] = -1
	}
	rowCount := make([]int, n)
	colCount := make([]int, n)
	for i := 0; i < n; i++ {
		rowCount[i] = w.rowLen(i)
		colCount[i] = w.colLen(i)
	}
	activeCol := func(j int) bool { return lu.ColOrder[j] < 0 }

	colMax := make([]float64, n)
	colLocks := make([]sync.Mutex, n)
	fillLimit := maxFillGrowth * (m.NNZ() + n)
	activeRows := make([]int, 0, n)

	// Phase profiling: when the pool carries telemetry, accumulate the time
	// spent in each of the five phases across all n pivot steps and record
	// the totals once per factorization.
	tel := pool.Telemetry()
	metered := tel.Enabled()
	var heuristicNS, searchNS, adjustNS, fillinNS, elimNS int64
	var mark time.Time
	if metered {
		mark = time.Now()
	}
	phase := func(acc *int64) {
		if metered {
			now := time.Now()
			*acc += now.Sub(mark).Nanoseconds()
			mark = now
		}
	}

	for k := 0; k < n; k++ {
		activeRows = activeRows[:0]
		for i := 0; i < n; i++ {
			if lu.RowOrder[i] < 0 {
				activeRows = append(activeRows, i)
			}
		}
		phase(&adjustNS) // active-row scan is bookkeeping; charge to adjust

		// Heuristic phase: per-column magnitude bounds, merged from
		// per-worker partial maxima.
		merged := parallel.Reduce(pool, len(activeRows),
			func() []float64 { return make([]float64, n) },
			func(acc []float64, idx int) []float64 {
				i := activeRows[idx]
				for e := w.rows[i].First; e != nil; e = e.NextInRow {
					if !activeCol(e.Col) {
						continue
					}
					if a := math.Abs(e.Val); a > acc[e.Col] {
						acc[e.Col] = a
					}
				}
				return acc
			},
			func(a, b []float64) []float64 {
				for j := range a {
					if b[j] > a[j] {
						a[j] = b[j]
					}
				}
				return a
			})
		copy(colMax, merged)
		phase(&heuristicNS)

		// Search phase: per-worker champions combined with the same total
		// order the sequential search uses.
		type champ struct {
			e     *Elem
			score int
			mag   float64
		}
		best := parallel.Reduce(pool, len(activeRows),
			func() champ { return champ{score: math.MaxInt} },
			func(acc champ, idx int) champ {
				i := activeRows[idx]
				for e := w.rows[i].First; e != nil; e = e.NextInRow {
					if !activeCol(e.Col) {
						continue
					}
					mag := math.Abs(e.Val)
					if mag < stabilityU*colMax[e.Col] || mag == 0 {
						continue
					}
					score := (rowCount[i] - 1) * (colCount[e.Col] - 1)
					if betterPivot(score, mag, e, acc.score, acc.mag, acc.e) {
						acc = champ{e: e, score: score, mag: mag}
					}
				}
				return acc
			},
			func(a, b champ) champ {
				if b.e != nil && betterPivot(b.score, b.mag, b.e, a.score, a.mag, a.e) {
					return b
				}
				return a
			})
		phase(&searchNS)
		if best.e == nil {
			return nil, fmt.Errorf("%w at step %d", ErrSingular, k)
		}
		pivot := best.e
		pr, pc := pivot.Row, pivot.Col

		// Adjust: sequential bookkeeping, as in Factor.
		lu.PRow = append(lu.PRow, pr)
		lu.PCol = append(lu.PCol, pc)
		lu.RowOrder[pr] = k
		lu.ColOrder[pc] = k
		for e := w.cols[pc].First; e != nil; e = e.NextInCol {
			if e.Row != pr && lu.RowOrder[e.Row] < 0 {
				rowCount[e.Row]--
			}
		}
		for e := w.rows[pr].First; e != nil; e = e.NextInRow {
			if e.Col != pc && activeCol(e.Col) {
				colCount[e.Col]--
			}
		}

		var updates []*Elem
		for e := w.cols[pc].First; e != nil; e = e.NextInCol {
			if e.Row != pr && lu.RowOrder[e.Row] < 0 {
				updates = append(updates, e)
			}
		}
		phase(&adjustNS)

		// Fill-in phase.  Row lists are private to their update row; column
		// lists are shared and guarded per column.
		fills := make([]int, len(updates))
		fillin := func(u int) {
			row := updates[u].Row
			cursor := w.rows[row].First
			var prev *Elem
			for pe := w.rows[pr].First; pe != nil; pe = pe.NextInRow {
				if pe.Col == pc || !activeCol(pe.Col) {
					continue
				}
				for cursor != nil && cursor.Col < pe.Col {
					prev = cursor
					cursor = cursor.NextInRow
				}
				if cursor != nil && cursor.Col == pe.Col {
					continue
				}
				e := &Elem{Row: row, Col: pe.Col}
				// Row insertion at the cursor (row list owned by this task).
				e.NextInRow = cursor
				if prev == nil {
					w.rows[row].First = e
				} else {
					prev.NextInRow = e
				}
				prev = e
				// Column insertion under the column's lock.
				colLocks[pe.Col].Lock()
				w.insertInCol(e)
				colCount[pe.Col]++
				colLocks[pe.Col].Unlock()
				rowCount[row]++
				fills[u]++
			}
		}
		if full {
			pool.ForEach(len(updates), fillin)
		} else {
			for u := range updates {
				fillin(u)
			}
		}
		for u := range fills {
			lu.Trace.Fills += fills[u]
			w.nnz += fills[u]
		}
		phase(&fillinNS)
		if w.NNZ() > fillLimit {
			return nil, fmt.Errorf("sparse: fill-in exceeded %d elements at step %d", fillLimit, k)
		}

		// Elimination phase: each task writes only its own row's values.
		elim := func(u int) {
			mult := updates[u].Val / pivot.Val
			updates[u].Val = mult
			cursor := w.rows[updates[u].Row].First
			for pe := w.rows[pr].First; pe != nil; pe = pe.NextInRow {
				if pe.Col == pc || !activeCol(pe.Col) {
					continue
				}
				for cursor.Col < pe.Col {
					cursor = cursor.NextInRow
				}
				cursor.Val -= mult * pe.Val
			}
		}
		if full {
			pool.ForEach(len(updates), elim)
		} else {
			for u := range updates {
				elim(u)
			}
		}
		phase(&elimNS)
	}
	if metered {
		tel.Histogram("sparse.phase_heuristic_ns").Observe(heuristicNS)
		tel.Histogram("sparse.phase_search_ns").Observe(searchNS)
		tel.Histogram("sparse.phase_adjust_ns").Observe(adjustNS)
		tel.Histogram("sparse.phase_fillin_ns").Observe(fillinNS)
		tel.Histogram("sparse.phase_elim_ns").Observe(elimNS)
		tel.Trace().Event("sparse.factor_parallel", telemetry.SpanID{},
			telemetry.Int("n", n),
			telemetry.Int("nnz", w.NNZ()),
			telemetry.Int("fills", lu.Trace.Fills),
			telemetry.Int("workers", pool.Workers()),
			telemetry.Bool("full", full),
			telemetry.DurUS("heuristic_us", time.Duration(heuristicNS)),
			telemetry.DurUS("search_us", time.Duration(searchNS)),
			telemetry.DurUS("adjust_us", time.Duration(adjustNS)),
			telemetry.DurUS("fillin_us", time.Duration(fillinNS)),
			telemetry.DurUS("elim_us", time.Duration(elimNS)))
	}
	return lu, nil
}

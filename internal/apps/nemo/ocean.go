// Package nemo reproduces the paper's NEMO experiments (Section V-B).
//
// NEMO is an ocean model on a curvilinear Arakawa C grid, parallelized by
// MPI domain decomposition; the paper runs the BENCH configuration at
// ORCA1 (1-degree) resolution.
//
// The package provides (i) a real mini-ocean: a conservative 2D tracer
// advection-diffusion stepper, domain-decomposed over the simulated MPI
// runtime with genuine halo exchanges, verified bit-compatible with the
// serial stepper and mass-conserving; and (ii) the paper-scale BENCH model
// regenerating Fig. 11 and the NEMO row of Table IV.
package nemo

import (
	"context"
	"fmt"
	"math"

	"clustereval/internal/mpisim"
	"clustereval/internal/units"
)

// Field is a 2D periodic tracer field, row-major, ny rows by nx columns.
type Field struct {
	NX, NY int
	Data   []float64
}

// NewField allocates an nx x ny field.
func NewField(nx, ny int) (*Field, error) {
	if nx < 3 || ny < 3 {
		return nil, fmt.Errorf("nemo: grid %dx%d too small (need >= 3)", nx, ny)
	}
	return &Field{NX: nx, NY: ny, Data: make([]float64, nx*ny)}, nil
}

// At returns the value at column i, row j (periodic wrap).
func (f *Field) At(i, j int) float64 {
	i = ((i % f.NX) + f.NX) % f.NX
	j = ((j % f.NY) + f.NY) % f.NY
	return f.Data[j*f.NX+i]
}

// Set assigns the value at column i, row j (no wrap; caller in range).
func (f *Field) Set(i, j int, v float64) { f.Data[j*f.NX+i] = v }

// Mass returns the total tracer content — conserved by the scheme.
func (f *Field) Mass() float64 {
	s := 0.0
	for _, v := range f.Data {
		s += v
	}
	return s
}

// Params configures the stepper: constant advection velocity (u, v) in
// cells/step and diffusion coefficient kappa (stability: kappa <= 0.25,
// |u|,|v| <= 1).
type Params struct {
	U, V  float64
	Kappa float64
}

// Validate checks the CFL-style stability limits.
func (p Params) Validate() error {
	if math.Abs(p.U) > 1 || math.Abs(p.V) > 1 {
		return fmt.Errorf("nemo: advection speed (%v,%v) exceeds CFL limit 1", p.U, p.V)
	}
	if p.Kappa < 0 || p.Kappa > 0.25 {
		return fmt.Errorf("nemo: diffusion %v outside [0, 0.25]", p.Kappa)
	}
	return nil
}

// Step advances the field one time step serially: first-order upwind
// advection plus centered diffusion, a conservative flux form.
func Step(f *Field, p Params) (*Field, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out, err := NewField(f.NX, f.NY)
	if err != nil {
		return nil, err
	}
	for j := 0; j < f.NY; j++ {
		for i := 0; i < f.NX; i++ {
			out.Set(i, j, updated(f, p, i, j))
		}
	}
	return out, nil
}

// updated computes the new value at (i, j) from the 5-point neighbourhood.
// Flux-form upwind: each face's flux leaves one cell and enters the next,
// so total mass is conserved exactly (up to FP rounding).
func updated(f *Field, p Params, i, j int) float64 {
	c := f.At(i, j)
	w, e := f.At(i-1, j), f.At(i+1, j)
	s, n := f.At(i, j-1), f.At(i, j+1)

	// Upwind advective fluxes through the four faces.
	var fluxInX, fluxOutX float64
	if p.U >= 0 {
		fluxInX, fluxOutX = p.U*w, p.U*c
	} else {
		fluxInX, fluxOutX = -p.U*e, -p.U*c
	}
	var fluxInY, fluxOutY float64
	if p.V >= 0 {
		fluxInY, fluxOutY = p.V*s, p.V*c
	} else {
		fluxInY, fluxOutY = -p.V*n, -p.V*c
	}
	adv := fluxInX - fluxOutX + fluxInY - fluxOutY
	diff := p.Kappa * (w + e + s + n - 4*c)
	return c + adv + diff
}

// RunSerial advances steps time steps serially.
func RunSerial(f *Field, p Params, steps int) (*Field, error) {
	return RunSerialContext(context.Background(), f, p, steps)
}

// RunSerialContext is RunSerial under a context, checked between steps
// so a job deadline can abort a long integration.
func RunSerialContext(ctx context.Context, f *Field, p Params, steps int) (*Field, error) {
	cur := f
	for s := 0; s < steps; s++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next, err := Step(cur, p)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// RunDistributed advances the field with a row-block domain decomposition
// over the simulated MPI world: each rank owns a contiguous band of rows
// and exchanges one-row halos with its periodic neighbours every step.
// The result is identical to the serial stepper.
func RunDistributed(w *mpisim.World, f *Field, p Params, steps int) (*Field, error) {
	return RunDistributedContext(context.Background(), w, f, p, steps)
}

// RunDistributedContext is RunDistributed under a context: cancellation
// aborts the simulated MPI world between DES events.
func RunDistributedContext(ctx context.Context, w *mpisim.World, f *Field, p Params, steps int) (*Field, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ranks := w.Size()
	if f.NY < ranks {
		return nil, fmt.Errorf("nemo: %d rows cannot split over %d ranks", f.NY, ranks)
	}
	rowsOf := func(r int) (lo, hi int) {
		base, extra := f.NY/ranks, f.NY%ranks
		lo = r*base + min(r, extra)
		hi = lo + base
		if r < extra {
			hi++
		}
		return lo, hi
	}

	results := make([][]float64, ranks)
	err := w.RunContext(ctx, func(c *mpisim.Comm) {
		r := c.Rank()
		lo, hi := rowsOf(r)
		rows := hi - lo
		// Local band with one halo row above and below.
		local := make([]float64, (rows+2)*f.NX)
		for j := 0; j < rows; j++ {
			copy(local[(j+1)*f.NX:(j+2)*f.NX], f.Data[(lo+j)*f.NX:(lo+j+1)*f.NX])
		}
		up := (r - 1 + ranks) % ranks
		down := (r + 1) % ranks
		rowBytes := units.Bytes(8 * f.NX)

		for s := 0; s < steps; s++ {
			// Halo exchange: send first owned row up, last owned row down.
			firstRow := append([]float64(nil), local[f.NX:2*f.NX]...)
			lastRow := append([]float64(nil), local[rows*f.NX:(rows+1)*f.NX]...)
			reqU := c.Isend(up, 1, rowBytes, firstRow)
			reqD := c.Isend(down, 2, rowBytes, lastRow)
			fromDown := c.Recv(down, 1).Payload.([]float64)
			fromUp := c.Recv(up, 2).Payload.([]float64)
			copy(local[(rows+1)*f.NX:], fromDown)
			copy(local[:f.NX], fromUp)
			c.Wait(reqU)
			c.Wait(reqD)

			// Step the owned band using a periodic-in-x view.
			band := &Field{NX: f.NX, NY: rows + 2, Data: local}
			next := make([]float64, len(local))
			for j := 1; j <= rows; j++ {
				for i := 0; i < f.NX; i++ {
					next[j*f.NX+i] = updatedNoWrapY(band, p, i, j)
				}
			}
			copy(local, next)
		}
		out := make([]float64, rows*f.NX)
		copy(out, local[f.NX:(rows+1)*f.NX])
		results[r] = out
	})
	if err != nil {
		return nil, err
	}
	final, _ := NewField(f.NX, f.NY)
	for r := 0; r < ranks; r++ {
		lo, _ := rowsOf(r)
		copy(final.Data[lo*f.NX:lo*f.NX+len(results[r])], results[r])
	}
	return final, nil
}

// updatedNoWrapY is the stencil update where y-neighbours are taken
// directly (halo rows already in place) and x wraps periodically.
func updatedNoWrapY(f *Field, p Params, i, j int) float64 {
	wrapX := func(i int) int { return ((i % f.NX) + f.NX) % f.NX }
	at := func(i, j int) float64 { return f.Data[j*f.NX+wrapX(i)] }
	c := at(i, j)
	w, e := at(i-1, j), at(i+1, j)
	s, n := at(i, j-1), at(i, j+1)
	var fluxInX, fluxOutX float64
	if p.U >= 0 {
		fluxInX, fluxOutX = p.U*w, p.U*c
	} else {
		fluxInX, fluxOutX = -p.U*e, -p.U*c
	}
	var fluxInY, fluxOutY float64
	if p.V >= 0 {
		fluxInY, fluxOutY = p.V*s, p.V*c
	} else {
		fluxInY, fluxOutY = -p.V*n, -p.V*c
	}
	adv := fluxInX - fluxOutX + fluxInY - fluxOutY
	diff := p.Kappa * (w + e + s + n - 4*c)
	return c + adv + diff
}

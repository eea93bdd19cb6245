// Package hurricane deterministically synthesizes a dataset with the
// structure of the Hurricane Isabel benchmark used in the paper's
// evaluation: 13 named fields over 48 timesteps on a 3-D grid, mixing
// smooth dense fields (pressure, temperature, winds, vapour) with sparse
// fields that are exactly zero over most of the domain (cloud and
// precipitation species).
//
// This is the substitution for the real Hurricane Isabel data (a
// multi-gigabyte download the paper obtained from the IEEE Visualization
// 2004 contest): the generator reproduces the properties the paper's
// analysis leans on — per-field heterogeneity in sparsity and smoothness,
// and temporal evolution (an intensifying, moving vortex) — which is what
// makes out-of-sample compression-ratio prediction hard on this dataset.
package hurricane

import (
	"fmt"
	"math"

	"repro/internal/pressio"
)

// Timesteps is the number of timesteps in the dataset (paper: all 48).
const Timesteps = 48

// FieldNames lists the 13 Hurricane Isabel fields (paper: all 13).
var FieldNames = []string{
	"CLOUD", "PRECIP", "QCLOUD", "QGRAUP", "QICE", "QRAIN",
	"QSNOW", "QVAPOR", "P", "TC", "U", "V", "W",
}

// DefaultDims is the scaled-down grid (the original is 500×500×100; the
// generator accepts any dims).
var DefaultDims = []int{32, 64, 64} // z (height), y, x

// IsSparse reports whether the field is one of the moisture/precipitation
// species that are exactly zero outside convective regions.
func IsSparse(field string) bool {
	switch field {
	case "CLOUD", "PRECIP", "QCLOUD", "QGRAUP", "QICE", "QRAIN", "QSNOW":
		return true
	}
	return false
}

// hash64 mixes coordinates into a deterministic pseudo-random uint64
// (splitmix64 finalizer).
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// noise01 returns a deterministic pseudo-random value in [0, 1) for an
// integer lattice point and seed.
func noise01(ix, iy, iz int, seed uint64) float64 {
	h := hash64(seed ^ hash64(uint64(ix)*0x8da6b343) ^
		hash64(uint64(iy)*0xd8163841) ^ hash64(uint64(iz)*0xcb1ab31f))
	return float64(h>>11) / float64(1<<53)
}

// storm describes the vortex at a timestep: the hurricane track moves
// diagonally across the domain while intensifying and then weakening.
type storm struct {
	cx, cy    float64 // eye position in unit coordinates
	intensity float64 // 0..1
	eyeRadius float64 // unit coordinates
}

func stormAt(step int) storm {
	t := float64(step) / float64(Timesteps-1)
	return storm{
		cx:        0.25 + 0.5*t,
		cy:        0.70 - 0.4*t,
		intensity: 0.4 + 0.6*math.Sin(math.Pi*t), // builds then decays
		eyeRadius: 0.08 + 0.02*math.Cos(2*math.Pi*t),
	}
}

// fieldSeed gives each (field, timestep) its own noise seed so fields are
// uncorrelated in their small-scale structure but temporally coherent in
// their large-scale pattern (the storm track is shared).
func fieldSeed(field string, step int) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range field {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return hash64(h ^ uint64(step)*2654435761)
}

// Generate synthesizes one field at one timestep as float32 data with the
// given dims (z, y, x order). It panics on invalid arguments to mirror
// out-of-range slice access; use Field for a checked variant.
func Generate(field string, step int, dims []int) *pressio.Data {
	d, err := Field(field, step, dims)
	if err != nil {
		panic(err)
	}
	return d
}

// Field synthesizes one field at one timestep, validating arguments: an
// unknown field, a step outside [0, Timesteps), dims that are not three
// positive extents or whose product overflows are errors, not panics.
// It is FieldSeeded at seed 0 — the canonical dataset every in-process
// consumer (predictd's DataRef path, the bench driver) agrees on.
func Field(field string, step int, dims []int) (*pressio.Data, error) {
	return FieldSeeded(field, step, dims, 0)
}

// FieldSeeded synthesizes one field at one timestep under a corpus seed.
// The seed perturbs only the small-scale noise structure; the storm track
// and the per-field physics are shared, so two seeds produce datasets
// with the same compression-difficulty profile but different bytes —
// what a scenario corpus needs to prove its manifest actually pins
// content, not just shape. Seed 0 is the canonical dataset.
func FieldSeeded(field string, step int, dims []int, seed uint64) (*pressio.Data, error) {
	if step < 0 || step >= Timesteps {
		return nil, fmt.Errorf("hurricane: step %d out of range [0, %d)", step, Timesteps)
	}
	if len(dims) != 3 {
		return nil, fmt.Errorf("hurricane: want 3 dims, got %v", dims)
	}
	if _, err := pressio.CheckDims(dims); err != nil {
		return nil, fmt.Errorf("hurricane: dims %v: %w", dims, err)
	}
	st := stormAt(step)
	ph, ok := physicsOf(field, st)
	if !ok {
		return nil, fmt.Errorf("hurricane: unknown field %q (have %v)", field, FieldNames)
	}

	nz, ny, nx := dims[0], dims[1], dims[2]
	out := pressio.NewFloat32(nz, ny, nx)
	buf := out.Float32()
	noiseSeed := fieldSeed(field, step)
	if seed != 0 {
		noiseSeed = hash64(noiseSeed ^ seed)
	}

	// Everything before the sample loop is paid once per call and per unit
	// it varies over: lattice cells per axis, noise per lattice point,
	// radial terms per column, vertical profiles per level. Each table
	// entry is computed by the expression a per-sample evaluation would
	// use (reference_test.go keeps that evaluation), so the bits match it.
	zs, ys, xs := unitAxis(nz), unitAxis(ny), unitAxis(nx) // z: 0 ground, 1 top
	var octaves [3]octave
	amp, freq := 0.5, 4.0
	for o := range octaves {
		octaves[o] = newOctave(zs, ys, xs, amp, freq, noiseSeed+uint64(o)*7919)
		amp /= 2
		freq *= 2
	}
	cols := make([][2]float64, ny*nx)
	for iy, y := range ys {
		for ix, x := range xs {
			a, b := ph.column(x-st.cx, y-st.cy)
			cols[iy*nx+ix] = [2]float64{a, b}
		}
	}

	turb := make([]float64, nx)
	for iz, z := range zs {
		level := 0.0
		if ph.level != nil {
			level = ph.level(z)
		}
		for iy := range ys {
			clear(turb)
			for o := range octaves {
				octaves[o].addRow(turb, iz, iy)
			}
			row := buf[(iz*ny+iy)*nx:][:nx]
			for ix, c := range cols[iy*nx:][:nx] {
				row[ix] = float32(ph.sample(c[0], c[1], z, level, turb[ix]))
			}
		}
	}
	return out, nil
}

// unitAxis returns the unit coordinate of each of n samples along an
// axis: 0 at the first, 1 at the last.
func unitAxis(n int) []float64 {
	u := make([]float64, n)
	for i := range u {
		u[i] = float64(i) / float64(max(n-1, 1))
	}
	return u
}

// cell places one sample of an axis on an octave's lattice: the lattice
// point at or below it and the smoothstep-faded fraction towards the next.
type cell struct {
	i int
	t float64
}

func cells(us []float64, freq float64) []cell {
	out := make([]cell, len(us))
	for k, u := range us {
		u *= freq
		i := int(math.Floor(u))
		t := u - float64(i)
		out[k] = cell{i, t * t * (3 - 2*t)}
	}
	return out
}

// octave is one frequency of trilinearly interpolated lattice noise laid
// over the grid, giving smooth spatially-correlated fluctuations.
type octave struct {
	amp     float64
	z, y, x []cell    // per sample along each axis
	n       int       // lattice points per axis
	lattice []float64 // noise01 at [iz][iy][ix]
}

func newOctave(zs, ys, xs []float64, amp, freq float64, seed uint64) octave {
	// a unit coordinate reaches lattice point freq, whose far corner is freq+1
	n := int(freq) + 2
	o := octave{amp: amp, z: cells(zs, freq), y: cells(ys, freq), x: cells(xs, freq),
		n: n, lattice: make([]float64, 0, n*n*n)}
	for iz := 0; iz < n; iz++ {
		for iy := 0; iy < n; iy++ {
			for ix := 0; ix < n; ix++ {
				o.lattice = append(o.lattice, noise01(ix, iy, iz, seed))
			}
		}
	}
	return o
}

func lerp(a, b, t float64) float64 { return a + (b-a)*t }

// addRow adds the octave's share of the turbulence (three octaves sum to
// roughly [-1, 1]) to each sample of the x-row at (iz, iy).
func (o *octave) addRow(turb []float64, iz, iy int) {
	cz, cy, n := o.z[iz], o.y[iy], o.n
	r00 := o.lattice[(cz.i*n+cy.i)*n:][:n]
	r01 := o.lattice[(cz.i*n+cy.i+1)*n:][:n]
	r10 := o.lattice[((cz.i+1)*n+cy.i)*n:][:n]
	r11 := o.lattice[((cz.i+1)*n+cy.i+1)*n:][:n]
	for ix, cx := range o.x {
		x00 := lerp(r00[cx.i], r00[cx.i+1], cx.t)
		x01 := lerp(r01[cx.i], r01[cx.i+1], cx.t)
		x10 := lerp(r10[cx.i], r10[cx.i+1], cx.t)
		x11 := lerp(r11[cx.i], r11[cx.i+1], cx.t)
		y0 := lerp(x00, x01, cy.t)
		y1 := lerp(x10, x11, cy.t)
		turb[ix] += o.amp * (2*lerp(y0, y1, cz.t) - 1) // noise in [0,1)
	}
}

// physics is one field's model split by what each term varies over.
type physics struct {
	// column evaluates the terms that depend on (x, y) only, from the
	// offset to the eye: once per column.
	column func(dx, dy float64) (a, b float64)
	// level, if set, is the field's vertical profile: once per z.
	level func(z float64) float64
	// sample closes the model from the column's terms, the height, the
	// level's profile and the turbulence at the sample.
	sample func(a, b, z, level, turb float64) float64
}

// physicsOf returns the model of a named field under a storm.
func physicsOf(field string, st storm) (physics, bool) {
	// radial profiles
	core := func(r float64) float64 { return math.Exp(-r * r / (2 * 0.15 * 0.15)) }
	eyewall := func(r float64) float64 {
		return math.Exp(-(r - st.eyeRadius) * (r - st.eyeRadius) / (2 * 0.03 * 0.03))
	}
	// spiral rainbands: log-spiral phase modulated by radius, positive
	// lobes only, under an envelope
	band := func(r, angle float64) float64 { return math.Max(math.Cos(3*angle-12*r), 0) }
	bandEnv := func(r float64) float64 { return math.Exp(-(r - 0.25) * (r - 0.25) / (2 * 0.12 * 0.12)) }
	ofCore := func(dx, dy float64) (float64, float64) { return core(math.Hypot(dx, dy)), 0 }
	// species is a moisture species: amount is what the column's eyewall
	// and rainbands supply beyond the species' threshold, vert where it
	// sits in the vertical; gust scales the turbulence.
	species := func(amount func(eyewall, bandEnv, band float64) float64, vert func(z float64) float64, gust, scale float64) physics {
		return physics{
			column: func(dx, dy float64) (float64, float64) {
				r := math.Hypot(dx, dy)
				return amount(eyewall(r), bandEnv(r), band(r, math.Atan2(dy, dx))), 0
			},
			level:  vert,
			sample: func(amount, _, _, vert, turb float64) float64 { return sparse(amount*vert*(1+gust*turb), scale) },
		}
	}
	var ph physics
	switch field {
	case "P": // pressure: hydrostatic profile + central low
		ph = physics{column: ofCore, sample: func(core, _, z, _, turb float64) float64 {
			return 1000 - 850*z - 60*st.intensity*core + 2*turb
		}}
	case "TC": // temperature: lapse rate + warm core aloft
		ph = physics{column: ofCore, sample: func(core, _, z, _, turb float64) float64 {
			return 28 - 70*z + 8*st.intensity*core*z + 1.5*turb
		}}
	case "U": // zonal wind: tangential vortex component + shear
		ph = physics{
			column: func(dx, dy float64) (float64, float64) {
				return tangential(math.Hypot(dx, dy), st), math.Sin(math.Atan2(dy, dx))
			},
			sample: func(vt, sin, z, _, turb float64) float64 { return -vt*sin + 10*z + 3*turb },
		}
	case "V": // meridional wind
		ph = physics{
			column: func(dx, dy float64) (float64, float64) {
				return tangential(math.Hypot(dx, dy), st), math.Cos(math.Atan2(dy, dx))
			},
			sample: func(vt, cos, _, _, turb float64) float64 { return vt*cos + 3*turb },
		}
	case "W": // vertical velocity: strong in eyewall and bands, noisy
		ph = physics{
			column: func(dx, dy float64) (float64, float64) {
				r := math.Hypot(dx, dy)
				return 4*st.intensity*eyewall(r) + 1.5*st.intensity*bandEnv(r)*band(r, math.Atan2(dy, dx)), 0
			},
			level:  func(z float64) float64 { return math.Sin(math.Pi * z) },
			sample: func(updraft, _, _, sin, turb float64) float64 { return updraft*sin + 0.8*turb },
		}
	case "QVAPOR": // vapour: moist boundary layer, enhanced near storm
		ph = physics{
			column: ofCore,
			level:  func(z float64) float64 { return math.Exp(-4 * z) },
			sample: func(core, _, _, vert, turb float64) float64 {
				return math.Max(0, (0.02+0.008*st.intensity*core)*vert*(1+0.3*turb))
			},
		}
	case "CLOUD", "QCLOUD": // cloud water: mid-level, eyewall + bands
		ph = species(func(eyewall, bandEnv, band float64) float64 {
			return st.intensity*(1.2*eyewall+bandEnv*band) - 0.35
		}, func(z float64) float64 { return math.Exp(-(z - 0.4) * (z - 0.4) / (2 * 0.2 * 0.2)) }, 0.4, 3e-4)
	case "QRAIN", "PRECIP": // rain: low level under the bands
		ph = species(func(eyewall, bandEnv, band float64) float64 {
			return st.intensity*(eyewall+1.1*bandEnv*band) - 0.4
		}, func(z float64) float64 { return math.Exp(-3 * z) }, 0.5, 5e-4)
	case "QICE": // ice: only aloft
		ph = species(func(eyewall, bandEnv, band float64) float64 {
			return st.intensity*(eyewall+bandEnv*band) - 0.45
		}, func(z float64) float64 { return math.Exp(-(z - 0.8) * (z - 0.8) / (2 * 0.15 * 0.15)) }, 0.4, 2e-4)
	case "QSNOW": // snow: upper-mid levels, broader than ice
		ph = species(func(eyewall, bandEnv, band float64) float64 {
			return st.intensity*(0.8*eyewall+bandEnv*band) - 0.42
		}, func(z float64) float64 { return math.Exp(-(z - 0.65) * (z - 0.65) / (2 * 0.18 * 0.18)) }, 0.4, 2e-4)
	case "QGRAUP": // graupel: rarest species, tall convective cores only
		ph = species(func(eyewall, bandEnv, band float64) float64 {
			return st.intensity*(1.5*eyewall+0.6*bandEnv*band) - 0.6
		}, func(z float64) float64 { return math.Exp(-(z - 0.55) * (z - 0.55) / (2 * 0.15 * 0.15)) }, 0.4, 1e-4)
	}
	return ph, ph.sample != nil
}

// tangential is the vortex tangential wind speed profile (Rankine-like:
// linear inside the eye, decaying outside).
func tangential(r float64, st storm) float64 {
	vmax := 60 * st.intensity
	if r < st.eyeRadius {
		return vmax * r / st.eyeRadius
	}
	return vmax * math.Pow(st.eyeRadius/r, 0.6)
}

// sparse clamps small or negative amounts to exactly zero, producing the
// large zero regions characteristic of moisture species, and scales the
// remainder.
func sparse(amount, scale float64) float64 {
	if amount <= 0 {
		return 0
	}
	return amount * scale * 50
}

package hurricane

// The per-sample evaluation FieldSeeded used before it became separable,
// kept verbatim as the oracle: it hashes 8 lattice corners × 3 octaves and
// re-evaluates every radial and vertical profile for each sample, which
// makes it slow and makes it obviously the model. TestFieldMatchesReference
// and FuzzFieldMatchesReference hold the generator to it bit for bit.

import (
	"math"
	"testing"
)

// valueNoise is trilinearly interpolated lattice noise at frequency freq,
// giving smooth spatially-correlated fluctuations.
func valueNoise(x, y, z float64, freq float64, seed uint64) float64 {
	x, y, z = x*freq, y*freq, z*freq
	ix, iy, iz := int(math.Floor(x)), int(math.Floor(y)), int(math.Floor(z))
	fx, fy, fz := x-float64(ix), y-float64(iy), z-float64(iz)
	// smoothstep fade
	fx = fx * fx * (3 - 2*fx)
	fy = fy * fy * (3 - 2*fy)
	fz = fz * fz * (3 - 2*fz)
	var c [2][2][2]float64
	for dz := 0; dz < 2; dz++ {
		for dy := 0; dy < 2; dy++ {
			for dx := 0; dx < 2; dx++ {
				c[dz][dy][dx] = noise01(ix+dx, iy+dy, iz+dz, seed)
			}
		}
	}
	lerp := func(a, b, t float64) float64 { return a + (b-a)*t }
	x00 := lerp(c[0][0][0], c[0][0][1], fx)
	x01 := lerp(c[0][1][0], c[0][1][1], fx)
	x10 := lerp(c[1][0][0], c[1][0][1], fx)
	x11 := lerp(c[1][1][0], c[1][1][1], fx)
	y0 := lerp(x00, x01, fy)
	y1 := lerp(x10, x11, fy)
	return lerp(y0, y1, fz) // in [0,1)
}

// fbm sums three octaves of value noise, returning roughly [-1, 1].
func fbm(x, y, z float64, seed uint64) float64 {
	v := 0.0
	amp := 0.5
	freq := 4.0
	for o := 0; o < 3; o++ {
		v += amp * (2*valueNoise(x, y, z, freq, seed+uint64(o)*7919) - 1)
		amp /= 2
		freq *= 2
	}
	return v
}

// sample evaluates the physical model of one field at unit coordinates.
func sample(field string, x, y, z float64, st storm, seed uint64) float64 {
	dx, dy := x-st.cx, y-st.cy
	r := math.Hypot(dx, dy)
	// radial profiles
	core := math.Exp(-r * r / (2 * 0.15 * 0.15))
	eyewall := math.Exp(-(r - st.eyeRadius) * (r - st.eyeRadius) / (2 * 0.03 * 0.03))
	// spiral rainbands: log-spiral phase modulated by radius
	angle := math.Atan2(dy, dx)
	band := math.Cos(3*angle - 12*r)
	bandEnv := math.Exp(-(r - 0.25) * (r - 0.25) / (2 * 0.12 * 0.12))
	turb := fbm(x, y, z, seed)

	switch field {
	case "P": // pressure: hydrostatic profile + central low
		return 1000 - 850*z - 60*st.intensity*core + 2*turb
	case "TC": // temperature: lapse rate + warm core aloft
		return 28 - 70*z + 8*st.intensity*core*z + 1.5*turb
	case "U": // zonal wind: tangential vortex component + shear
		vt := tangential(r, st)
		return -vt*math.Sin(angle) + 10*z + 3*turb
	case "V": // meridional wind
		vt := tangential(r, st)
		return vt*math.Cos(angle) + 3*turb
	case "W": // vertical velocity: strong in eyewall and bands, noisy
		updraft := 4*st.intensity*eyewall + 1.5*st.intensity*bandEnv*math.Max(band, 0)
		return updraft*math.Sin(math.Pi*z) + 0.8*turb
	case "QVAPOR": // vapour: moist boundary layer, enhanced near storm
		return math.Max(0, (0.02+0.008*st.intensity*core)*math.Exp(-4*z)*(1+0.3*turb))
	case "CLOUD", "QCLOUD": // cloud water: mid-level, eyewall + bands
		amount := st.intensity*(1.2*eyewall+bandEnv*math.Max(band, 0)) - 0.35
		vert := math.Exp(-(z - 0.4) * (z - 0.4) / (2 * 0.2 * 0.2))
		return sparse(amount*vert*(1+0.4*turb), 3e-4)
	case "QRAIN", "PRECIP": // rain: low level under the bands
		amount := st.intensity*(eyewall+1.1*bandEnv*math.Max(band, 0)) - 0.4
		vert := math.Exp(-3 * z)
		return sparse(amount*vert*(1+0.5*turb), 5e-4)
	case "QICE": // ice: only aloft
		amount := st.intensity*(eyewall+bandEnv*math.Max(band, 0)) - 0.45
		vert := math.Exp(-(z - 0.8) * (z - 0.8) / (2 * 0.15 * 0.15))
		return sparse(amount*vert*(1+0.4*turb), 2e-4)
	case "QSNOW": // snow: upper-mid levels, broader than ice
		amount := st.intensity*(0.8*eyewall+bandEnv*math.Max(band, 0)) - 0.42
		vert := math.Exp(-(z - 0.65) * (z - 0.65) / (2 * 0.18 * 0.18))
		return sparse(amount*vert*(1+0.4*turb), 2e-4)
	case "QGRAUP": // graupel: rarest species, tall convective cores only
		amount := st.intensity*(1.5*eyewall+0.6*bandEnv*math.Max(band, 0)) - 0.6
		vert := math.Exp(-(z - 0.55) * (z - 0.55) / (2 * 0.15 * 0.15))
		return sparse(amount*vert*(1+0.4*turb), 1e-4)
	}
	return 0
}

// referenceField is FieldSeeded's former body: every sample evaluated on
// its own. Arguments are the caller's to validate.
func referenceField(field string, step int, dims []int, seed uint64) []float32 {
	nz, ny, nx := dims[0], dims[1], dims[2]
	buf := make([]float32, nz*ny*nx)
	st := stormAt(step)
	noiseSeed := fieldSeed(field, step)
	if seed != 0 {
		noiseSeed = hash64(noiseSeed ^ seed)
	}

	idx := 0
	for iz := 0; iz < nz; iz++ {
		z := float64(iz) / float64(max(nz-1, 1)) // 0 ground, 1 top
		for iy := 0; iy < ny; iy++ {
			y := float64(iy) / float64(max(ny-1, 1))
			for ix := 0; ix < nx; ix++ {
				x := float64(ix) / float64(max(nx-1, 1))
				buf[idx] = float32(sample(field, x, y, z, st, noiseSeed))
				idx++
			}
		}
	}
	return buf
}

func requireReferenceBits(t *testing.T, field string, step int, dims []int, seed uint64) {
	t.Helper()
	d, err := FieldSeeded(field, step, dims, seed)
	if err != nil {
		t.Fatal(err)
	}
	got, want := d.Float32(), referenceField(field, step, dims, seed)
	if len(got) != len(want) {
		t.Fatalf("%s step %d dims %v seed %d: %d elements, reference has %d", field, step, dims, seed, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s step %d dims %v seed %d: element %d = %v (%#08x), reference %v (%#08x)", field, step, dims, seed,
				i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestFieldMatchesReference compares on every architecture what
// TestFieldGoldenDigests pins on one.
func TestFieldMatchesReference(t *testing.T) {
	for _, field := range FieldNames {
		for i, dims := range goldenGrids {
			requireReferenceBits(t, field, (7*i+3)%Timesteps, dims, uint64(i%2)*7)
		}
	}
}

func FuzzFieldMatchesReference(f *testing.F) {
	f.Add(uint8(9), uint8(24), uint64(0), uint8(4), uint8(8), uint8(8)) // TC
	f.Add(uint8(10), uint8(47), uint64(7), uint8(1), uint8(1), uint8(12))
	f.Add(uint8(0), uint8(0), uint64(1)<<63, uint8(12), uint8(1), uint8(1))
	f.Add(uint8(6), uint8(13), uint64(42), uint8(3), uint8(11), uint8(5))
	f.Add(uint8(7), uint8(30), uint64(3), uint8(2), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, field, step uint8, seed uint64, nz, ny, nx uint8) {
		dims := []int{1 + int(nz)%12, 1 + int(ny)%12, 1 + int(nx)%12}
		requireReferenceBits(t, FieldNames[int(field)%len(FieldNames)], int(step)%Timesteps, dims, seed)
	})
}

// BenchmarkField and BenchmarkFieldReference set every field's generation
// beside the reference's at the default grid, peak intensity.
func BenchmarkField(b *testing.B) {
	for _, field := range FieldNames {
		b.Run(field, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Generate(field, 24, DefaultDims)
			}
		})
	}
}

func BenchmarkFieldReference(b *testing.B) {
	for _, field := range FieldNames {
		b.Run(field, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				referenceField(field, 24, DefaultDims, 0)
			}
		})
	}
}

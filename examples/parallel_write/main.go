// Parallel shared-file write: the Jin 2022 / HDF5 use case (paper §2.1).
// Writers compressing distinct chunks of a shared file need their file
// offsets *before* compressing, so offsets are precomputed from predicted
// compressed sizes inflated by a safety factor; a chunk whose actual
// compressed size overflows its reservation falls back to an append
// region. Predictions do not need to be very accurate — they need to be
// fast and rarely under-allocate.
//
// Run with: go run ./examples/parallel_write
package main

import (
	"fmt"
	"log"
	"sync"

	_ "repro/internal/compressor/sz3"
	"repro/internal/core"
	"repro/internal/hurricane"
	_ "repro/internal/metrics"
	_ "repro/internal/predictors"
	"repro/internal/pressio"
)

// chunkInfo tracks one shared-file chunk through prediction, layout, and
// the actual write.
type chunkInfo struct {
	field         string
	data          *pressio.Data
	predictedSize int
	offset        int
	actualSize    int
	fallback      bool
}

func main() {
	const (
		abs          = 1e-3
		safetyFactor = 1.15 // 15% over-allocation (paper §2.1)
	)
	dims := []int{12, 32, 32}

	// one chunk per field at one timestep, written by parallel workers
	fields := hurricane.FieldNames
	chunks := make([]*chunkInfo, len(fields))
	for i, f := range fields {
		data, err := hurricane.Field(f, 30, dims)
		if err != nil {
			log.Fatal(err)
		}
		chunks[i] = &chunkInfo{field: f, data: data}
	}

	// 1. predict each chunk's compressed size with the fast jin2022
	// analytic model (no compressor run)
	session, err := core.NewSession("jin2022", "sz3")
	if err != nil {
		log.Fatal(err)
	}
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, abs)
	if err := session.SetOptions(opts); err != nil {
		log.Fatal(err)
	}
	for _, c := range chunks {
		cr, _, err := session.Predict(c.data) // a new buffer is evaluated afresh
		if err != nil {
			log.Fatal(err)
		}
		c.predictedSize = int(float64(c.data.ByteSize()) / cr * safetyFactor)
	}

	// 2. precompute offsets from predicted sizes
	offset := 0
	for _, c := range chunks {
		c.offset = offset
		offset += c.predictedSize
	}
	appendRegion := offset // fallback writes land here

	// 3. "write" in parallel: compress for real, detect overflows
	var wg sync.WaitGroup
	for _, c := range chunks {
		wg.Add(1)
		go func(c *chunkInfo) {
			defer wg.Done()
			comp, err := pressio.GetCompressor("sz3")
			if err != nil {
				log.Fatal(err)
			}
			o := pressio.Options{}
			o.Set(pressio.OptAbs, abs)
			comp.SetOptions(o)
			compressed, err := comp.Compress(c.data)
			if err != nil {
				log.Fatal(err)
			}
			c.actualSize = compressed.ByteSize()
			c.fallback = c.actualSize > c.predictedSize
		}(c)
	}
	wg.Wait()

	// 4. report
	fmt.Printf("%-10s %-12s %-12s %-10s %-10s\n", "chunk", "reserved", "actual", "offset", "fallback")
	fallbacks := 0
	reserved := 0
	used := 0
	for _, c := range chunks {
		fb := ""
		if c.fallback {
			fb = "-> append"
			fallbacks++
		}
		fmt.Printf("%-10s %-12d %-12d %-10d %-10s\n", c.field, c.predictedSize, c.actualSize, c.offset, fb)
		reserved += c.predictedSize
		used += c.actualSize
	}
	fmt.Printf("\nfile layout: %d bytes reserved, append region at %d\n", reserved, appendRegion)
	fmt.Printf("mispredictions (fallback to append): %d/%d chunks\n", fallbacks, len(chunks))
	fmt.Printf("space efficiency: %.1f%% of the reservation used\n", 100*float64(used)/float64(reserved))
	fmt.Println("\nwith a safety factor, rare under-allocations fall back to appends —")
	fmt.Println("the prediction must be fast, not perfect (paper §2.1)")

	boundedReservations(chunks)
}

// boundedReservations replays the allocation with Ganguli 2023's bounded
// predictions instead of a guessed safety factor: conformal intervals on
// the predicted CR let the writer size reservations to a chosen
// misprediction probability (paper §2.1: "statistical bounds ... allowing
// precise forecasting of the number of mispredictions").
func boundedReservations(chunks []*chunkInfo) {
	const (
		abs   = 1e-3
		alpha = 0.1 // accept ≤10% under-allocations in expectation
	)
	fmt.Println("\n--- bounded reservations (ganguli2023 conformal intervals) ---")

	// train on earlier timesteps of the same fields
	session, err := core.NewSession("ganguli2023", "sz3")
	if err != nil {
		log.Fatal(err)
	}
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, abs)
	if err := session.SetOptions(opts); err != nil {
		log.Fatal(err)
	}
	var x [][]float64
	var y []float64
	dims := chunks[0].data.Dims()
	for _, f := range hurricane.FieldNames {
		for _, step := range []int{0, 8, 16, 22} {
			data, err := hurricane.Field(f, step, dims)
			if err != nil {
				log.Fatal(err)
			}
			ev, err := session.Evaluate(data)
			if err != nil {
				log.Fatal(err)
			}
			cr, _, _, err := core.ObserveTarget("sz3", data, opts)
			if err != nil {
				log.Fatal(err)
			}
			x = append(x, append([]float64(nil), ev.Features...))
			y = append(y, cr)
		}
	}
	if err := session.Predictor.Fit(x, y); err != nil {
		log.Fatal(err)
	}
	ip, ok := session.Predictor.(core.IntervalPredictor)
	if !ok {
		log.Fatal("ganguli predictor should provide intervals")
	}

	fallbacks := 0
	reserved := 0
	used := 0
	for _, c := range chunks {
		ev, err := session.Evaluate(c.data)
		if err != nil {
			log.Fatal(err)
		}
		_, loCR, _, err := ip.PredictInterval(ev.Features, alpha)
		if err != nil {
			log.Fatal(err)
		}
		// the lower CR bound gives the conservative reservation
		reservation := int(float64(c.data.ByteSize()) / loCR)
		reserved += reservation
		used += c.actualSize
		if c.actualSize > reservation {
			fallbacks++
		}
	}
	fmt.Printf("target misprediction rate: <= %.0f%%\n", alpha*100)
	fmt.Printf("observed fallbacks:        %d/%d chunks (%.0f%%)\n",
		fallbacks, len(chunks), 100*float64(fallbacks)/float64(len(chunks)))
	fmt.Printf("space efficiency:          %.1f%% of the reservation used\n",
		100*float64(used)/float64(reserved))
	fmt.Println("the interval replaces the guessed safety factor with a guarantee")
}

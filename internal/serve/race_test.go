package serve

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/hurricane"
	"repro/internal/pressio"
)

// TestConcurrentKernelsUnderLoad is the -race regression drill for the
// kernels' package-level scratch pools: two compressors drawing on them
// run flat out while LoadGen drives the predict server, which itself
// evaluates metrics on the same pools. Every compression is compared
// byte-for-byte against a reference computed before any concurrency
// starts, so the test pins two properties at once — the race detector
// proves pooled scratch is never shared between in-flight compressions,
// and the byte comparison proves concurrency never changes the encoding.
func TestConcurrentKernelsUnderLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 256, Deadline: 30 * time.Second})
	defer s.Drain()

	data, err := hurricane.Field("TC", 3, []int{24, 24, 24})
	if err != nil {
		t.Fatal(err)
	}

	// references, one per kernel, before any concurrency starts
	kernels := []string{"sz3", "zfp"}
	refs := make(map[string][]byte, len(kernels))
	for _, name := range kernels {
		comp := newKernel(t, name)
		c, err := comp.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		refs[name] = append([]byte(nil), c.Bytes()...)
	}

	const rounds = 4
	var wg sync.WaitGroup
	errc := make(chan error, len(kernels)*rounds+1)

	// the two compressors: each goroutine owns its Compressor instance
	// (plugins are not thread-safe) but all of them contend on the pooled
	// codes/recon/block scratch
	for _, name := range kernels {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			comp := newKernel(t, name)
			out := pressio.New(data.DType(), data.Dims()...)
			for i := 0; i < rounds; i++ {
				c, err := comp.Compress(data)
				if err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(c.Bytes(), refs[name]) {
					t.Errorf("%s: concurrent compression diverged from serial reference", name)
					return
				}
				if err := comp.Decompress(c, out); err != nil {
					errc <- err
					return
				}
			}
		}(name)
	}

	// the serve workload shares the process: its metric evaluations hit
	// the same stats layer the kernels do
	wg.Add(1)
	var res *LoadGenResult
	go func() {
		defer wg.Done()
		var err error
		res, err = LoadGen(ts.URL, 6, 20, []PredictRequest{
			khanRequest(1.5), khanRequest(2.5), khanRequest(3.5),
		})
		if err != nil {
			errc <- err
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if res != nil && res.Errors+res.Rejected > 0 {
		t.Errorf("loadgen under kernel load: %d errors, %d rejected, want 0", res.Errors, res.Rejected)
	}
}

// newKernel builds a named compressor at abs=1e-4.
func newKernel(t *testing.T, name string) pressio.Compressor {
	t.Helper()
	comp, err := pressio.GetCompressor(name)
	if err != nil {
		t.Fatal(err)
	}
	opts := pressio.Options{}
	opts.Set(pressio.OptAbs, 1e-4)
	if err := comp.SetOptions(opts); err != nil {
		t.Fatal(err)
	}
	return comp
}

package pressio

import (
	"errors"
	"testing"
)

// fakeCompressor doubles as a registry test fixture and a metrics-group
// target: "compression" stores the input length, decompression zero-fills.
type fakeCompressor struct {
	opts Options
}

func (f *fakeCompressor) Name() string { return "fake" }

func (f *fakeCompressor) Compress(in *Data) (*Data, error) {
	return NewByte(make([]byte, in.ByteSize()/2)), nil
}

func (f *fakeCompressor) Decompress(compressed *Data, out *Data) error {
	for i := 0; i < out.Len(); i++ {
		out.Set(i, 0)
	}
	return nil
}

func (f *fakeCompressor) SetOptions(o Options) error {
	if f.opts == nil {
		f.opts = Options{}
	}
	f.opts.Merge(o)
	return nil
}

func (f *fakeCompressor) Options() Options { return f.opts }

func (f *fakeCompressor) Configuration() Options {
	c := Options{}
	c.Set(CfgThreadSafe, true)
	return c
}

// recordingMetric counts hook invocations.
type recordingMetric struct {
	BaseMetric
	begins, endsC, beginsD, endsD int
}

func (m *recordingMetric) Name() string        { return "recording" }
func (m *recordingMetric) BeginCompress(*Data) { m.begins++ }
func (m *recordingMetric) EndCompress(_, _ *Data, _ error) {
	m.endsC++
}
func (m *recordingMetric) BeginDecompress(*Data) { m.beginsD++ }
func (m *recordingMetric) EndDecompress(_, _ *Data, _ error) {
	m.endsD++
}
func (m *recordingMetric) Results() Options {
	o := Options{}
	o.Set("recording:begins", int64(m.begins))
	return o
}
func (m *recordingMetric) Invalidates() []string { return []string{InvalidateErrorAgnostic} }

func TestRegistryRoundTrip(t *testing.T) {
	RegisterCompressor("fake-test", func() Compressor { return &fakeCompressor{} })
	c, err := GetCompressor("fake-test")
	if err != nil {
		t.Fatalf("GetCompressor: %v", err)
	}
	if c.Name() != "fake" {
		t.Errorf("Name = %q", c.Name())
	}
	if _, err := GetCompressor("no-such-plugin"); err == nil {
		t.Error("unknown plugin should error")
	}
	found := false
	for _, n := range CompressorNames() {
		if n == "fake-test" {
			found = true
		}
	}
	if !found {
		t.Error("CompressorNames missing fake-test")
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	RegisterCompressor("dup-test", func() Compressor { return &fakeCompressor{} })
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration should panic")
		}
	}()
	RegisterCompressor("dup-test", func() Compressor { return &fakeCompressor{} })
}

func TestMetricsGroupLifecycle(t *testing.T) {
	m := &recordingMetric{}
	g := &MetricsGroup{Compressor: &fakeCompressor{}, Metrics: []Metric{m}, results: Options{}}

	in := NewFloat32(64)
	compressed, err := g.Compress(in)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	out := NewFloat32(64)
	if err := g.Decompress(compressed, out); err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if m.begins != 1 || m.endsC != 1 || m.beginsD != 1 || m.endsD != 1 {
		t.Errorf("hooks = %d/%d/%d/%d, want 1 each", m.begins, m.endsC, m.beginsD, m.endsD)
	}
	res := g.Results()
	if _, ok := res.GetFloat("time:compress"); !ok {
		t.Error("missing time:compress")
	}
	if _, ok := res.GetFloat("time:decompress"); !ok {
		t.Error("missing time:decompress")
	}
	if v, ok := res.GetInt("recording:begins"); !ok || v != 1 {
		t.Errorf("metric results not merged: %v %v", v, ok)
	}
}

func TestNewMetricsGroupUnknownMetric(t *testing.T) {
	if _, err := NewMetricsGroup(&fakeCompressor{}, "definitely-missing"); err == nil {
		t.Error("unknown metric should error")
	}
}

func TestMetricsGroupSetOptionsPropagates(t *testing.T) {
	c := &fakeCompressor{}
	g := &MetricsGroup{Compressor: c, Metrics: []Metric{&recordingMetric{}}, results: Options{}}
	opts := Options{}
	opts.Set(OptAbs, 1e-4)
	if err := g.SetOptions(opts); err != nil {
		t.Fatalf("SetOptions: %v", err)
	}
	if v, ok := c.Options().GetFloat(OptAbs); !ok || v != 1e-4 {
		t.Errorf("compressor did not receive option: %v %v", v, ok)
	}
}

type failingMetric struct {
	BaseMetric
}

func (failingMetric) Name() string             { return "failing" }
func (failingMetric) Results() Options         { return Options{} }
func (failingMetric) Invalidates() []string    { return nil }
func (failingMetric) SetOptions(Options) error { return errors.New("boom") }

func TestMetricsGroupSetOptionsReportsMetricError(t *testing.T) {
	g := &MetricsGroup{Metrics: []Metric{failingMetric{}}, results: Options{}}
	if err := g.SetOptions(Options{}); err == nil {
		t.Error("metric SetOptions error should propagate")
	}
}

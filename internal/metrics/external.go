package metrics

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/pressio"
)

// Option keys of the external metric.
const (
	// OptExternalCommand is the executable to run ("external:command").
	OptExternalCommand = "external:command"
	// OptExternalArgs are extra arguments ("external:args").
	OptExternalArgs = "external:args"
	// OptExternalInvalidate overrides the invalidation metadata the
	// external program's results carry ("external:invalidate"); defaults
	// to error-agnostic.
	OptExternalInvalidate = "external:invalidate"
	// OptExternalTimeoutMS bounds the subprocess runtime
	// ("external:timeout_ms", default 30000).
	OptExternalTimeoutMS = "external:timeout_ms"
)

func init() {
	pressio.RegisterMetric("external", func() pressio.Metric { return &External{} })
}

// External is the external-metrics framework of LibPressio (paper §4.2):
// it lets users write metrics in any language by running a subprocess per
// observation, "at the cost of some overhead".
//
// Protocol: the uncompressed buffer is streamed to the program's stdin as
// raw little-endian values; buffer metadata arrives in the environment
// (PRESSIO_DTYPE, PRESSIO_DIMS as comma-separated ints, PRESSIO_ABS). The
// program prints one result per stdout line as "key value" with a numeric
// value; keys without a colon are namespaced under "external:".
type External struct {
	pressio.BaseMetric
	Command    string
	Args       []string
	Invalidate []string
	TimeoutMS  int64
	Abs        float64

	results pressio.Options
}

// Name implements pressio.Metric.
func (*External) Name() string { return "external" }

// Invalidates implements pressio.Metric: the external:invalidate
// option, error-agnostic when unset.
func (m *External) Invalidates() []string {
	if len(m.Invalidate) == 0 {
		return agnosticClass
	}
	return m.Invalidate
}

// SetOptions implements pressio.Metric.
func (m *External) SetOptions(o pressio.Options) error {
	if v, ok := o.GetString(OptExternalCommand); ok {
		m.Command = v
	}
	if v, ok := o.GetStrings(OptExternalArgs); ok {
		m.Args = v
	}
	if v, ok := o.GetStrings(OptExternalInvalidate); ok {
		m.Invalidate = v
	}
	if v, ok := o.GetInt(OptExternalTimeoutMS); ok {
		if v < 1 {
			return fmt.Errorf("external: timeout %d ms must be positive", v)
		}
		m.TimeoutMS = v
	}
	if v, ok := o.GetFloat(pressio.OptAbs); ok {
		m.Abs = v
	}
	return nil
}

// Options implements pressio.Metric.
func (m *External) Options() pressio.Options {
	o := pressio.Options{}
	o.Set(OptExternalCommand, m.Command)
	o.Set(OptExternalArgs, append([]string(nil), m.Args...))
	o.Set(OptExternalInvalidate, append([]string(nil), m.Invalidate...))
	o.Set(OptExternalTimeoutMS, m.timeout())
	o.Set(pressio.OptAbs, m.Abs)
	return o
}

func (m *External) timeout() int64 {
	if m.TimeoutMS <= 0 {
		return 30000
	}
	return m.TimeoutMS
}

// BeginCompress implements pressio.Metric: run the external program over
// the input and collect its key/value results.
func (m *External) BeginCompress(in *pressio.Data) {
	r := pressio.Options{}
	defer func() { m.results = r }()
	if m.Command == "" {
		r.Set("external:error", "no command configured")
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(m.timeout())*time.Millisecond)
	defer cancel()
	cmd := exec.CommandContext(ctx, m.Command, m.Args...)
	// don't wait on grandchildren holding the output pipe after a kill
	cmd.WaitDelay = 250 * time.Millisecond

	dims := make([]string, len(in.Dims()))
	for i, d := range in.Dims() {
		dims[i] = strconv.Itoa(d)
	}
	cmd.Env = append(cmd.Environ(),
		"PRESSIO_DTYPE="+in.DType().String(),
		"PRESSIO_DIMS="+strings.Join(dims, ","),
		"PRESSIO_ABS="+strconv.FormatFloat(m.Abs, 'g', -1, 64),
	)
	cmd.Stdin = bytes.NewReader(rawPayload(in))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		r.Set("external:error", err.Error())
		return
	}

	scanner := bufio.NewScanner(&stdout)
	parsed := 0
	for scanner.Scan() {
		fields := strings.Fields(scanner.Text())
		if len(fields) != 2 {
			continue
		}
		value, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		key := fields[0]
		if !strings.Contains(key, ":") {
			key = "external:" + key
		}
		r.Set(key, value)
		parsed++
	}
	if parsed == 0 {
		r.Set("external:error", "program produced no parsable results")
	}
}

// rawPayload renders the buffer as raw little-endian values, the layout
// external programs expect (same as the .f32/.f64 on-disk convention).
func rawPayload(in *pressio.Data) []byte {
	out := make([]byte, 0, in.ByteSize())
	switch in.DType() {
	case pressio.DTypeFloat32:
		for _, v := range in.Float32() {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
		}
	case pressio.DTypeFloat64:
		for _, v := range in.Float64() {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	case pressio.DTypeByte:
		out = append(out, in.Bytes()...)
	default:
		for i := 0; i < in.Len(); i++ {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(in.At(i)))
		}
	}
	return out
}

// Results implements pressio.Metric.
func (m *External) Results() pressio.Options { return m.results.Clone() }

package metrics

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/opthash"
	"repro/internal/pressio"
)

// writeScript creates an executable shell script for the external metric.
func writeScript(t *testing.T, body string) string {
	t.Helper()
	if runtime.GOOS == "windows" {
		t.Skip("shell-script fixture")
	}
	path := filepath.Join(t.TempDir(), "metric.sh")
	if err := os.WriteFile(path, []byte("#!/bin/sh\n"+body), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

func externalWith(t *testing.T, script string, extra pressio.Options) pressio.Options {
	t.Helper()
	m := &External{}
	opts := pressio.Options{}
	opts.Set(OptExternalCommand, script)
	opts.Merge(extra)
	if err := m.SetOptions(opts); err != nil {
		t.Fatal(err)
	}
	d := pressio.NewFloat32(4, 8)
	for i := 0; i < d.Len(); i++ {
		d.Set(i, float64(i))
	}
	m.BeginCompress(d)
	return m.Results()
}

func TestExternalReceivesPayloadAndEnv(t *testing.T) {
	script := writeScript(t, `
n=$(wc -c)
echo "stdin_bytes $n"
echo "dims_ok $([ "$PRESSIO_DIMS" = "4,8" ] && echo 1 || echo 0)"
echo "dtype_ok $([ "$PRESSIO_DTYPE" = "float32" ] && echo 1 || echo 0)"
echo "abs $PRESSIO_ABS"
`)
	extra := pressio.Options{}
	extra.Set(pressio.OptAbs, 0.5)
	r := externalWith(t, script, extra)
	if v, ok := r.GetFloat("external:stdin_bytes"); !ok || v != 128 {
		t.Errorf("stdin_bytes = %v, %v (want 128 = 32 float32s)", v, ok)
	}
	if v, _ := r.GetFloat("external:dims_ok"); v != 1 {
		t.Error("PRESSIO_DIMS not delivered")
	}
	if v, _ := r.GetFloat("external:dtype_ok"); v != 1 {
		t.Error("PRESSIO_DTYPE not delivered")
	}
	if v, _ := r.GetFloat("external:abs"); v != 0.5 {
		t.Errorf("PRESSIO_ABS = %v", v)
	}
}

func TestExternalNamespacing(t *testing.T) {
	script := writeScript(t, `
cat > /dev/null
echo "plain 1"
echo "custom:key 2"
echo "not-a-number x"
echo "malformed line with words"
`)
	r := externalWith(t, script, pressio.Options{})
	if v, ok := r.GetFloat("external:plain"); !ok || v != 1 {
		t.Error("bare keys should be namespaced under external:")
	}
	if v, ok := r.GetFloat("custom:key"); !ok || v != 2 {
		t.Error("namespaced keys should pass through")
	}
	if len(r.Keys()) != 2 {
		t.Errorf("malformed lines should be skipped: %v", r.Keys())
	}
}

func TestExternalFailuresAreReported(t *testing.T) {
	// missing command
	m := &External{}
	m.BeginCompress(pressio.NewFloat32(4))
	if _, ok := m.Results().GetString("external:error"); !ok {
		t.Error("unconfigured metric should report an error result")
	}
	// failing program
	script := writeScript(t, "cat > /dev/null\nexit 3\n")
	r := externalWith(t, script, pressio.Options{})
	if _, ok := r.GetString("external:error"); !ok {
		t.Error("non-zero exit should be reported")
	}
	// program with no output
	script = writeScript(t, "cat > /dev/null\n")
	r = externalWith(t, script, pressio.Options{})
	if _, ok := r.GetString("external:error"); !ok {
		t.Error("empty output should be reported")
	}
}

func TestExternalTimeout(t *testing.T) {
	script := writeScript(t, "sleep 5\n")
	extra := pressio.Options{}
	extra.Set(OptExternalTimeoutMS, 50)
	r := externalWith(t, script, extra)
	if _, ok := r.GetString("external:error"); !ok {
		t.Error("timeout should be reported as an error")
	}
}

func TestExternalInvalidateOverride(t *testing.T) {
	m := &External{}
	// default: error-agnostic
	inv := m.Invalidates()
	if len(inv) != 1 || inv[0] != pressio.InvalidateErrorAgnostic {
		t.Errorf("default invalidation = %v", inv)
	}
	opts := pressio.Options{}
	opts.Set(OptExternalInvalidate, []string{pressio.OptAbs, pressio.InvalidateErrorDependent})
	m.SetOptions(opts)
	inv = m.Invalidates()
	if len(inv) != 2 || inv[0] != pressio.OptAbs {
		t.Errorf("override invalidation = %v", inv)
	}
	bad := pressio.Options{}
	bad.Set(OptExternalTimeoutMS, 0)
	if err := m.SetOptions(bad); err == nil {
		t.Error("zero timeout accepted")
	}
}

// externalSet is a scheme of the external metric alone.
type externalSet struct{}

func (externalSet) Metrics() []string  { return []string{"external"} }
func (externalSet) Features() []string { return []string{"external:abs"} }

// TestExternalStageFollowsItsOptions: external's stage is an option of
// the plan's, not a property of its name. Planned at its default it is
// error-agnostic — run once per buffer and options, then memoised;
// planned with an error-dependent invalidation list in the same
// evaluator it runs every time and its feature is the dependent one.
func TestExternalStageFollowsItsOptions(t *testing.T) {
	script := writeScript(t, "cat > /dev/null\necho \"abs $PRESSIO_ABS\"\n")
	ctx := context.Background()
	data := pressio.NewFloat32(4, 8)
	var ev core.Evaluator
	plan := func(abs float64, inv []string) *core.FeaturePlan {
		t.Helper()
		opts := pressio.Options{}
		opts.Set(OptExternalCommand, script)
		opts.Set(pressio.OptAbs, abs)
		if inv != nil {
			opts.Set(OptExternalInvalidate, inv)
		}
		p, err := ev.Plan(externalSet{}, "sz3", opts)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	dependent := []string{pressio.OptAbs, pressio.InvalidateErrorDependent}
	for round, c := range []struct {
		abs float64
		inv []string
		dep bool
	}{
		{0.5, nil, false},
		{0.25, dependent, true},
		{0.5, nil, false},
		{0.25, dependent, true},
	} {
		p := plan(c.abs, c.inv)
		got, err := p.Evaluate(ctx, data)
		if err != nil {
			t.Fatal(err)
		}
		if _, dep := p.DependentFeature(); got[0] != c.abs || dep != c.dep {
			t.Errorf("round %d (invalidate %v): %v, dependent %v; want %v, %v", round, c.inv, got, dep, c.abs, c.dep)
		}
	}
	if hits, misses := ev.MemoStats(); hits != 1 || misses != 1 {
		t.Errorf("memo %d hits / %d misses, want 1 / 1: only the error-agnostic plans memoise", hits, misses)
	}
}

// TestExternalOptionsGolden pins the opthash digest of a configured
// External metric's Options(). The digest changed when Options() was
// audited against the struct: Invalidate and Abs previously fell out of
// the option map, so two runs differing only in invalidation override or
// error bound collapsed onto one checkpoint key. Including them orphans
// old external-metric checkpoint entries once — deliberately (see
// CHANGES.md); treat any further diff here as a breaking change.
func TestExternalOptionsGolden(t *testing.T) {
	m := &External{}
	opts := pressio.Options{}
	opts.Set(OptExternalCommand, "/usr/bin/env")
	opts.Set(OptExternalArgs, []string{"python3", "metric.py"})
	opts.Set(OptExternalInvalidate, []string{pressio.InvalidateErrorDependent})
	opts.Set(OptExternalTimeoutMS, 1500)
	opts.Set(pressio.OptAbs, 1e-4)
	if err := m.SetOptions(opts); err != nil {
		t.Fatal(err)
	}
	const golden = "4b57251c02958132601e8d06fac87020af366ebe92b1ecdc99de05dfa7863b0f"
	if got := opthash.HashString(m.Options()); got != golden {
		t.Errorf("External options hash drifted:\n got %s\nwant %s", got, golden)
	}
	for _, key := range []string{OptExternalCommand, OptExternalArgs,
		OptExternalInvalidate, OptExternalTimeoutMS, pressio.OptAbs} {
		if _, ok := m.Options()[key]; !ok {
			t.Errorf("Options() lost key %s", key)
		}
	}
}

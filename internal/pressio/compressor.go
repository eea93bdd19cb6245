package pressio

import (
	"fmt"
	"sort"
	"sync"
)

// Well-known option and configuration keys shared across plugins.
const (
	// OptAbs is the absolute error bound honoured by every error-bounded
	// compressor in this repository ("pressio:abs").
	OptAbs = "pressio:abs"

	// CfgThreadSafe marks a plugin safe for concurrent use from multiple
	// goroutines after configuration.
	CfgThreadSafe = "pressio:thread_safe"

	// CfgStability documents a plugin's maturity ("stable", "experimental").
	CfgStability = "pressio:stability"
)

// Compressor is the plugin interface for (de)compressors, mirroring
// libpressio_compressor_plugin. Implementations are configured through
// Options and advertise immutable metadata through Configuration.
type Compressor interface {
	// Name returns the registry name of the plugin, e.g. "sz3".
	Name() string

	// Compress encodes in and returns the compressed payload as a byte
	// Data. The input buffer is not modified.
	Compress(in *Data) (*Data, error)

	// Decompress decodes compressed into out. The caller allocates out
	// with the original dtype and dims, as in LibPressio.
	Decompress(compressed *Data, out *Data) error

	// SetOptions applies configuration; unknown keys are ignored so that
	// generic sweep tools can broadcast settings such as pressio:abs.
	SetOptions(Options) error

	// Options returns the current configuration.
	Options() Options

	// Configuration returns immutable metadata about the plugin.
	Configuration() Options
}

// registry is a named factory table; one instance exists per plugin kind.
type registry[T any] struct {
	mu        sync.RWMutex
	factories map[string]func() T
}

func (r *registry[T]) register(name string, factory func() T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.factories == nil {
		r.factories = make(map[string]func() T)
	}
	if _, dup := r.factories[name]; dup {
		panic(fmt.Sprintf("pressio: duplicate plugin registration %q", name))
	}
	r.factories[name] = factory
}

func (r *registry[T]) get(name string) (T, error) {
	r.mu.RLock()
	factory, ok := r.factories[name]
	r.mu.RUnlock()
	if !ok {
		var zero T
		return zero, fmt.Errorf("pressio: no plugin registered as %q (have %v)", name, r.names())
	}
	return factory(), nil
}

func (r *registry[T]) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.factories))
	for name := range r.factories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

var compressors registry[Compressor]

// RegisterCompressor adds a compressor factory to the global registry.
// It panics on duplicate names; registration happens in package init.
func RegisterCompressor(name string, factory func() Compressor) {
	compressors.register(name, factory)
}

// GetCompressor instantiates a fresh compressor by registry name.
func GetCompressor(name string) (Compressor, error) {
	return compressors.get(name)
}

// CompressorNames lists the registered compressor plugins, sorted.
func CompressorNames() []string { return compressors.names() }

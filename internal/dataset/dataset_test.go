package dataset

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/hurricane"
	"repro/internal/pressio"
)

func synth(t *testing.T) *Synthetic {
	t.Helper()
	s, err := NewSynthetic([]string{"P", "CLOUD"}, 3, []int{4, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSyntheticBasics(t *testing.T) {
	s := synth(t)
	if s.Len() != 6 {
		t.Fatalf("Len = %d, want 6", s.Len())
	}
	m, err := s.LoadMetadata(0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "P.t00" || m.DType != pressio.DTypeFloat32 {
		t.Errorf("metadata = %+v", m)
	}
	if m.Elements() != 4*8*8 || m.ByteSize() != 4*8*8*4 {
		t.Errorf("Elements/ByteSize wrong: %d/%d", m.Elements(), m.ByteSize())
	}
	d, err := s.LoadData(1) // CLOUD.t00
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != m.Elements() {
		t.Errorf("data size %d != metadata %d", d.Len(), m.Elements())
	}
	if _, err := s.LoadData(99); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := s.LoadMetadata(-1); err == nil {
		t.Error("negative index accepted")
	}
}

func TestSyntheticValidation(t *testing.T) {
	if _, err := NewSynthetic(nil, 0, []int{4, 4, 4}); err == nil {
		t.Error("zero steps accepted")
	}
	if _, err := NewSynthetic(nil, 2, []int{4, 4}); err == nil {
		t.Error("2-D dims accepted")
	}
	s, err := NewSynthetic(nil, 2, []int{2, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2*len(hurricane.FieldNames) {
		t.Errorf("nil fields should select all 13: Len=%d", s.Len())
	}
	for _, dims := range [][]int{{-1, 4, 4}, {0, 4, 4}} {
		s, err := NewSynthetic(nil, 2, dims)
		if err != nil {
			t.Fatal(err)
		}
		if d, err := s.LoadData(0); err == nil {
			t.Errorf("dims %v: LoadData returned %d elements and no error", dims, d.Len())
		}
	}
}

func TestSyntheticLoadAll(t *testing.T) {
	s := synth(t)
	metas, err := s.LoadMetadataAll()
	if err != nil {
		t.Fatal(err)
	}
	all, err := s.LoadDataAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 6 || len(all) != 6 {
		t.Fatalf("batch lengths %d/%d", len(metas), len(all))
	}
}

func TestFolderRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := synth(t)
	for i := 0; i < src.Len(); i++ {
		m, _ := src.LoadMetadata(i)
		d, _ := src.LoadData(i)
		if _, err := WriteRaw(dir, m.Name, d); err != nil {
			t.Fatal(err)
		}
	}
	// an unrelated file that must be skipped by the pattern
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	f, err := NewFolder(dir, "*.f32")
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != src.Len() {
		t.Fatalf("folder found %d entries, want %d", f.Len(), src.Len())
	}
	m, err := f.LoadMetadata(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Dims) != 3 || m.Dims[0] != 4 || m.Dims[1] != 8 || m.Dims[2] != 8 {
		t.Errorf("parsed dims = %v", m.Dims)
	}
	got, err := f.LoadData(0)
	if err != nil {
		t.Fatal(err)
	}
	// entries are name-sorted: CLOUD.t00 first
	want, _ := src.LoadData(1)
	for i := 0; i < want.Len(); i++ {
		if got.At(i) != want.At(i) {
			t.Fatalf("payload mismatch at %d", i)
		}
	}
}

func TestFolderPdat(t *testing.T) {
	dir := t.TempDir()
	d := pressio.NewFloat64(3, 5)
	for i := 0; i < d.Len(); i++ {
		d.Set(i, float64(i)*1.5)
	}
	raw, _ := d.MarshalBinary()
	if err := os.WriteFile(filepath.Join(dir, "matrix.pdat"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := NewFolder(dir, "*.pdat")
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 1 {
		t.Fatalf("Len = %d", f.Len())
	}
	m, _ := f.LoadMetadata(0)
	if m.Name != "matrix" || m.DType != pressio.DTypeFloat64 || m.Dims[0] != 3 || m.Dims[1] != 5 {
		t.Errorf("pdat metadata = %+v", m)
	}
	got, err := f.LoadData(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.At(4) != 6.0 {
		t.Errorf("payload wrong: %v", got.At(4))
	}
}

// TestFolderPdatRefusesHostileHeaders rewrites a valid file's header
// three ways — a rank of 1<<32-1, a dim of 1<<32+8 (8 once truncated to
// a 32-bit int), dims whose product is past pressio.MaxElements — and
// each must be refused, before anything is sized from it, with an error
// that names the file: on 64-bit and on 32-bit ints alike.
func TestFolderPdatRefusesHostileHeaders(t *testing.T) {
	d := pressio.NewFloat32(8, 4, 2)
	valid, _ := d.MarshalBinary()
	for _, c := range []struct {
		name    string
		rewrite func(b []byte)
	}{
		{"rank", func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 1<<32-1) }},
		{"dim", func(b []byte) { binary.LittleEndian.PutUint64(b[8:], 1<<32+8) }},
		{"product", func(b []byte) {
			for i := range 3 {
				binary.LittleEndian.PutUint64(b[8+8*i:], 1<<22)
			}
		}},
	} {
		dir := t.TempDir()
		raw := slices.Clone(valid)
		c.rewrite(raw)
		file := c.name + ".pdat"
		if err := os.WriteFile(filepath.Join(dir, file), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := NewFolder(dir, "*.pdat")
		if err == nil || !strings.Contains(err.Error(), file) {
			t.Errorf("%s: NewFolder = %v, want a refusal naming %s", c.name, err, file)
		}
	}
}

func TestFolderRejectsBadNames(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "nodims.f32"), []byte{0, 0, 0, 0}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFolder(dir, "*.f32"); err == nil {
		t.Error("file without dims suffix accepted")
	}
	if _, err := NewFolder(dir+"/missing", "*"); err == nil {
		t.Error("missing directory accepted")
	}
}

func TestFolderSizeMismatch(t *testing.T) {
	dir := t.TempDir()
	// claims 4x4 f32 = 64 bytes but holds 8
	if err := os.WriteFile(filepath.Join(dir, "bad_4x4.f32"), make([]byte, 8), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := NewFolder(dir, "*.f32")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.LoadData(0); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestCacheMemoryTier(t *testing.T) {
	s := synth(t)
	c, err := NewCache(s, 1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadData(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadData(0); err != nil {
		t.Fatal(err)
	}
	mem, disk, miss := c.Stats()
	if mem != 1 || disk != 0 || miss != 1 {
		t.Errorf("stats = %d/%d/%d, want 1/0/1", mem, disk, miss)
	}
}

func TestCacheEviction(t *testing.T) {
	s := synth(t)
	one, _ := s.LoadData(0)
	c, err := NewCache(s, one.ByteSize()+1, "") // fits exactly one entry
	if err != nil {
		t.Fatal(err)
	}
	c.LoadData(0)
	c.LoadData(1) // evicts 0
	c.LoadData(0) // miss again
	_, _, miss := c.Stats()
	if miss != 3 {
		t.Errorf("misses = %d, want 3 (eviction)", miss)
	}
}

func TestCacheDiskTier(t *testing.T) {
	s := synth(t)
	dir := t.TempDir()
	c, err := NewCache(s, 0, dir) // no memory tier: everything spills
	if err != nil {
		t.Fatal(err)
	}
	want, _ := s.LoadData(2)
	got, err := c.LoadData(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < want.Len(); i++ {
		if got.At(i) != want.At(i) {
			t.Fatal("first load mismatch")
		}
	}
	got2, err := c.LoadData(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < want.Len(); i++ {
		if got2.At(i) != want.At(i) {
			t.Fatal("disk-tier load mismatch")
		}
	}
	_, disk, miss := c.Stats()
	if disk != 1 || miss != 1 {
		t.Errorf("disk/miss = %d/%d, want 1/1", disk, miss)
	}
}

func TestCacheRestartHitsDisk(t *testing.T) {
	// a new Cache over the same spill dir serves from disk, the restart
	// acceleration Figure 2 describes
	s := synth(t)
	dir := t.TempDir()
	c1, _ := NewCache(s, 0, dir)
	c1.LoadData(3)
	c2, _ := NewCache(s, 1<<20, dir)
	if _, err := c2.LoadData(3); err != nil {
		t.Fatal(err)
	}
	_, disk, miss := c2.Stats()
	if disk != 1 || miss != 0 {
		t.Errorf("restart disk/miss = %d/%d, want 1/0", disk, miss)
	}
}

func TestSamplerSubset(t *testing.T) {
	s := synth(t)
	sm, err := NewSampler(s, 0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Len() != 3 {
		t.Errorf("Len = %d, want 3 (ceil(6*0.5))", sm.Len())
	}
	seen := map[int]bool{}
	for i := 0; i < sm.Len(); i++ {
		inner := sm.InnerIndex(i)
		if inner < 0 || inner >= s.Len() || seen[inner] {
			t.Errorf("bad inner index %d", inner)
		}
		seen[inner] = true
		m, err := sm.LoadMetadata(i)
		if err != nil {
			t.Fatal(err)
		}
		wm, _ := s.LoadMetadata(inner)
		if m.Name != wm.Name {
			t.Errorf("metadata routed wrong: %s != %s", m.Name, wm.Name)
		}
	}
}

func TestSamplerDeterministic(t *testing.T) {
	s := synth(t)
	a, _ := NewSampler(s, 0.5, 7)
	b, _ := NewSampler(s, 0.5, 7)
	for i := 0; i < a.Len(); i++ {
		if a.InnerIndex(i) != b.InnerIndex(i) {
			t.Fatal("sampler not deterministic for equal seeds")
		}
	}
	c, _ := NewSampler(s, 0.5, 8)
	diff := false
	for i := 0; i < a.Len(); i++ {
		if a.InnerIndex(i) != c.InnerIndex(i) {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds gave identical samples (suspicious)")
	}
}

func TestSamplerValidation(t *testing.T) {
	s := synth(t)
	if _, err := NewSampler(s, 0, 1); err == nil {
		t.Error("zero fraction accepted")
	}
	if _, err := NewSampler(s, 1.5, 1); err == nil {
		t.Error("fraction > 1 accepted")
	}
	sm, _ := NewSampler(s, 1.0, 1)
	if sm.Len() != s.Len() {
		t.Errorf("full sample Len = %d, want %d", sm.Len(), s.Len())
	}
}

func TestPipelineStack(t *testing.T) {
	// folder → cache → sampler, the full Figure-2 stack
	dir := t.TempDir()
	src := synth(t)
	for i := 0; i < src.Len(); i++ {
		m, _ := src.LoadMetadata(i)
		d, _ := src.LoadData(i)
		WriteRaw(dir, m.Name, d)
	}
	folder, err := NewFolder(dir, "*.f32")
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewCache(folder, 1<<20, filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := NewSampler(cache, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sampled.Len(); i++ {
		if _, err := sampled.LoadData(i); err != nil {
			t.Fatal(err)
		}
	}
	opts := sampled.Options()
	if _, ok := opts.GetString("folder:dir"); !ok {
		t.Error("stacked options should include inner loader settings")
	}
	if _, ok := opts.GetFloat("sample:fraction"); !ok {
		t.Error("stacked options should include sampler settings")
	}
}

func TestPluginNamesAndBatchMethods(t *testing.T) {
	dir := t.TempDir()
	src := synth(t)
	for i := 0; i < src.Len(); i++ {
		m, _ := src.LoadMetadata(i)
		d, _ := src.LoadData(i)
		WriteRaw(dir, m.Name, d)
	}
	folder, err := NewFolder(dir, "*.f32")
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewCache(folder, 1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := NewSampler(cache, 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	names := map[Plugin]string{folder: "folder", cache: "cache", sampler: "sample"}
	for p, want := range names {
		if p.Name() != want {
			t.Errorf("Name() = %q, want %q", p.Name(), want)
		}
		if err := p.SetOptions(pressio.Options{}); err != nil {
			t.Errorf("%s: SetOptions: %v", want, err)
		}
		metas, err := p.LoadMetadataAll()
		if err != nil || len(metas) != p.Len() {
			t.Errorf("%s: LoadMetadataAll = %d entries, err %v", want, len(metas), err)
		}
		all, err := p.LoadDataAll()
		if err != nil || len(all) != p.Len() {
			t.Errorf("%s: LoadDataAll = %d entries, err %v", want, len(all), err)
		}
	}
	// cache delegates metadata to the inner loader
	m, err := cache.LoadMetadata(0)
	if err != nil {
		t.Fatal(err)
	}
	fm, _ := folder.LoadMetadata(0)
	if m.Name != fm.Name {
		t.Errorf("cache metadata %q != folder %q", m.Name, fm.Name)
	}
}

func TestWriteRawRejectsIntData(t *testing.T) {
	if _, err := WriteRaw(t.TempDir(), "x", pressio.NewInt32(4)); err == nil {
		t.Error("WriteRaw should reject integer data")
	}
}

// TestWriteRawReplacesByRename: a rewrite publishes a new file under the
// name instead of truncating the old one, so whoever still holds the old
// file (an open descriptor here, a pinned mmap in the tiered cache) keeps
// its bytes, and nothing but the final name is left in the directory.
func TestWriteRawReplacesByRename(t *testing.T) {
	dir := t.TempDir()
	d := pressio.NewFloat32(2, 3)
	d.Set(0, 1)
	path, err := WriteRaw(dir, "cell", d)
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	oldInfo, _ := old.Stat()

	d.Set(0, 2)
	if _, err := WriteRaw(dir, "cell", d); err != nil {
		t.Fatal(err)
	}
	newInfo, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(oldInfo, newInfo) {
		t.Error("the rewrite reused the old file: a mapping of it would have seen the truncate")
	}
	held := make([]byte, 4)
	if _, err := old.ReadAt(held, 0); err != nil || math.Float32frombits(binary.LittleEndian.Uint32(held)) != 1 {
		t.Errorf("the old file's bytes changed under its holder: %v %v", held, err)
	}
	now, _ := os.ReadFile(path)
	if len(now) != d.ByteSize() || math.Float32frombits(binary.LittleEndian.Uint32(now)) != 2 {
		t.Errorf("the name does not hold the rewrite: %v", now)
	}
	if names, _ := os.ReadDir(dir); len(names) != 1 {
		t.Errorf("temp files left behind: %v", names)
	}
}

func TestFolderFloat64RoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := pressio.NewFloat64(3, 4)
	for i := 0; i < d.Len(); i++ {
		d.Set(i, float64(i)*0.5)
	}
	if _, err := WriteRaw(dir, "dbl", d); err != nil {
		t.Fatal(err)
	}
	f, err := NewFolder(dir, "*.f64")
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.LoadData(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.DType() != pressio.DTypeFloat64 || got.At(5) != 2.5 {
		t.Errorf("f64 round trip wrong: %v %v", got.DType(), got.At(5))
	}
}

func TestCacheOversizeEntryServesThrough(t *testing.T) {
	s := synth(t)
	c, err := NewCache(s, 1, "") // capacity smaller than any entry
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadData(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadData(0); err != nil {
		t.Fatal(err)
	}
	_, _, miss := c.Stats()
	if miss != 2 {
		t.Errorf("oversize entries should never cache: misses = %d", miss)
	}
}

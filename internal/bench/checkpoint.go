package bench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/opthash"
	"repro/internal/pressio"
	"repro/internal/store"
)

// A cell's checkpoint key combines the hashes of three option structures
// (§4.3): its compressor configuration, its dataset configuration and the
// experiment's metadata. A spec's cells share their parts — table2's 52
// cells have 4 compressor parts, 13 dataset parts and 1 experiment part —
// so CollectDetailed hashes each part once and combines three sums a cell.

func compressorPart(compressor string, bound float64) [32]byte {
	o := pressio.Options{}
	o.Set("compressor", compressor)
	o.Set(pressio.OptAbs, bound)
	return opthash.Hash(o)
}

// datasetPart takes the dims as dimsString renders them.
func datasetPart(field string, step int, dims string) [32]byte {
	o := pressio.Options{}
	o.Set("dataset:field", field)
	o.Set("dataset:timestep", int64(step))
	o.Set("dataset:dims", dims)
	return opthash.Hash(o)
}

// datasetParts hashes the dataset part of each (field, step) of spec
// once, field-major: field i's step s is at i*spec.Steps+s.
func datasetParts(spec *Spec) [][32]byte {
	dims := dimsString(spec.Dims)
	parts := make([][32]byte, 0, len(spec.Fields)*spec.Steps)
	for _, field := range spec.Fields {
		for step := 0; step < spec.Steps; step++ {
			parts = append(parts, datasetPart(field, step, dims))
		}
	}
	return parts
}

func experimentPart(replicates int) [32]byte {
	o := pressio.Options{}
	o.Set("experiment", "table2")
	o.Set("replicates", int64(replicates))
	return opthash.Hash(o)
}

func cellKeyOf(comp, data, exp [32]byte) string {
	return "cell/" + opthash.CombineSums(comp, data, exp)
}

// dimsString renders [32 32 64] as "32x32x64".
func dimsString(dims []int) string {
	return strings.ReplaceAll(strings.Trim(fmt.Sprint(dims), "[]"), " ", "x")
}

// restoreCells reads every checkpointed cell of st and sums the records'
// bytes. One core.ObservationReader reads them all, so the cells share
// their names; a record it cannot read is left out, and the cell is
// recomputed.
func restoreCells(st *store.Store) (map[string]*Observation, int, error) {
	keys, err := st.Keys("cell/")
	if err != nil {
		return nil, 0, err
	}
	cells, size := make(map[string]*Observation, len(keys)), 0
	obs := make([]Observation, len(keys))
	var rd core.ObservationReader
	for i, k := range keys {
		raw, ok, err := st.Get(k)
		if err != nil || !ok {
			continue
		}
		size += len(raw)
		if rd.Read(raw, &obs[i]) == nil {
			cells[k] = &obs[i]
		}
	}
	return cells, size, nil
}

// failKey is the checkpoint key recording a cell's last failure.
func failKey(cellKey string) string { return "fail/" + cellKey }

// StoreInfo summarizes a checkpoint directory: how many cells are
// checkpointed and the store's physical state — the "what will a restart
// skip" introspection for operators.
func StoreInfo(dir string) (string, error) {
	st, err := store.Open(dir)
	if err != nil {
		return "", err
	}
	defer st.Close()
	cells, size, err := restoreCells(st)
	if err != nil {
		return "", err
	}
	byCompBound := map[string]int{}
	for _, ob := range cells {
		byCompBound[fmt.Sprintf("%s abs=%g", ob.Compressor, ob.Bound)]++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "checkpoint store %s\n", dir)
	fmt.Fprintf(&b, "  cells: %d (%d KiB of observations)\n", len(cells), size/1024)
	if failKeys, err := st.Keys("fail/"); err == nil && len(failKeys) > 0 {
		fmt.Fprintf(&b, "  failed cells awaiting retry: %d\n", len(failKeys))
		for _, fk := range failKeys {
			if raw, ok, _ := st.Get(fk); ok {
				fmt.Fprintf(&b, "    %s: %s\n", strings.TrimPrefix(fk, "fail/"), raw)
			}
		}
	}
	groups := make([]string, 0, len(byCompBound))
	for g := range byCompBound {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		fmt.Fprintf(&b, "  %-24s %d cells\n", g, byCompBound[g])
	}
	return b.String(), nil
}

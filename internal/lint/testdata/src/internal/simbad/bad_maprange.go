package simbad

// Sink stands in for an obs/trace handle.
type Sink struct{}

// Emit writes one record.
func (s *Sink) Emit(kind string) {}

// Table owns a map-typed field so the selector heuristic sees it.
type Table struct {
	weights map[int]float64
}

// DrainBad bakes map iteration order into three artifacts: an appended
// slice of values, a trace sink, and a float accumulator.
func DrainBad(m map[int]float64, sink *Sink) ([]float64, float64) {
	var vals []float64
	var sum float64
	for id, w := range m {
		vals = append(vals, w)
		sink.Emit("drain")
		sum += w
		_ = id
	}
	return vals, sum
}

// KeysUnsorted collects keys but never sorts them, so callers iterate
// in random order anyway.
func KeysUnsorted(t *Table) []int {
	var keys []int
	for id := range t.weights {
		keys = append(keys, id)
	}
	return keys
}

// sorter has a method named like sort.Ints that sorts nothing.
type sorter struct{}

// Ints leaves s as it is.
func (sorter) Ints(s []int) {}

// KeysShadowed calls Ints on a local variable named sort, not on the
// sort package, so the collected keys stay in random order.
func KeysShadowed(t *Table) []int {
	sort := sorter{}
	var keys []int
	for id := range t.weights {
		keys = append(keys, id)
	}
	sort.Ints(keys)
	return keys
}

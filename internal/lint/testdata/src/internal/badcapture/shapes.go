package badcapture

import "colloid/internal/shard"

type acc struct{ out []int }

// appendThrough appends to captured slices reached through a field and
// through a pointer.
func appendThrough(a *acc, p *[]int, vals []int) {
	shard.Run(4, len(vals), func(s int) {
		a.out = append(a.out, vals[s])
		*p = append(*p, vals[s])
	})
}

// nestedGo writes a captured counter from a go literal spawned inside
// another.
func nestedGo(done chan struct{}) int {
	n := 0
	go func() {
		go func() {
			n++
			done <- struct{}{}
		}()
	}()
	return n
}

// spawn is a package-level function value whose go literal writes a
// captured counter.
var spawn = func(done chan struct{}) int {
	hits := 0
	go func() {
		hits++
		done <- struct{}{}
	}()
	return hits
}

// mapSlots writes per-shard keys into a captured map: distinct keys
// still race.
func mapSlots(m map[int]int, n int) {
	shard.Run(4, n, func(s int) { m[s] = s * 2 })
}

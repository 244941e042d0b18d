package simgood

import srt "sort"

// AliasedKeys is Keys with the sort package imported under another
// name: the call through the alias still sorts the collected keys.
func AliasedKeys(m map[int]bool) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	srt.Ints(keys)
	return keys
}

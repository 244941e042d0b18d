// Package badcapture is a lint fixture: captured writes and RNG-stream
// capture in concurrent bodies.
package badcapture

import "colloid/internal/stats"

func fanOut(n int, done chan struct{}) {
	sum := 0
	for i := 0; i < n; i++ {
		go func() {
			sum += i // captured write; reading i is fine (per-iteration)
			done <- struct{}{}
		}()
	}
}

func streams(rng *stats.RNG, jobs []func(*stats.RNG)) {
	for k := range jobs {
		go func(j func(*stats.RNG)) {
			j(rng) // one stream handed to every goroutine
		}(jobs[k])
	}
}

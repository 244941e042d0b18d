package core

import (
	"colloid/internal/pages"
)

// PickPages implements the page-finding contract of Section 3.2: choose
// pages whose summed access probability does not exceed deltaP and
// whose summed size does not exceed limitBytes, and append their IDs to
// dst. scan offers candidates (ID and estimated access probability) in
// the order the system ranks them, hottest first so the set is small;
// every candidate is one page of pageBytes, the space's page size. A
// candidate hotter than the probability budget left is skipped. offer
// returns false, and refuses every later offer, once the byte budget
// left cannot hold another page, the probability budget left is
// negligible, or maxScan candidates (0: unlimited) have been examined,
// so the scan stops as soon as no further candidate could be picked.
func PickPages(dst []pages.PageID, deltaP float64, limitBytes, pageBytes int64, maxScan int,
	scan func(offer func(id pages.PageID, prob float64) bool)) []pages.PageID {
	probLeft, bytesLeft, scanned := deltaP, limitBytes, 0
	full := func() bool {
		return probLeft <= deltaP*1e-3 || bytesLeft < pageBytes || (maxScan > 0 && scanned >= maxScan)
	}
	if deltaP <= 0 || limitBytes <= 0 || full() {
		return dst
	}
	scan(func(id pages.PageID, prob float64) bool {
		if full() {
			return false
		}
		scanned++
		// Not prob <= probLeft: a NaN probability is picked, not skipped.
		if !(prob > probLeft) {
			dst = append(dst, id)
			probLeft -= prob
			bytesLeft -= pageBytes
		}
		return !full()
	})
	return dst
}

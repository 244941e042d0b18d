package core

// Picker implements the page-finding contract of Section 3.2: pick
// pages whose summed access probability does not exceed deltaP and
// whose summed size does not exceed limitBytes. The system walks its
// candidates in the order it ranks them, hottest first so the set is
// small, offers each one's estimated access probability, and moves the
// page as soon as Offer takes it; every candidate is one page of
// pageBytes, the space's page size. A candidate hotter than the
// probability budget left is skipped. Done reports, and Offer refuses
// every later offer, once the byte budget left cannot hold another
// page, the probability budget left is negligible, or maxScan
// candidates (0: unlimited) have been offered, so the walk stops as
// soon as no further candidate could be picked. A Picker is a plain
// value: the walk keeps it on its stack and allocates nothing. The
// zero Picker is done.
type Picker struct {
	probLeft, probFloor  float64
	bytesLeft, pageBytes int64
	maxScan, scanned     int
}

// NewPicker returns a picker over the budgets deltaP and limitBytes.
func NewPicker(deltaP float64, limitBytes, pageBytes int64, maxScan int) Picker {
	if deltaP <= 0 || limitBytes <= 0 {
		return Picker{}
	}
	return Picker{
		probLeft:  deltaP,
		probFloor: deltaP * 1e-3,
		bytesLeft: limitBytes,
		pageBytes: pageBytes,
		maxScan:   maxScan,
	}
}

// Done reports whether no further candidate could be picked.
func (p *Picker) Done() bool {
	return p.probLeft <= p.probFloor || p.bytesLeft < p.pageBytes || (p.maxScan > 0 && p.scanned >= p.maxScan)
}

// Offer examines one candidate of access probability prob and reports
// whether it is picked, charging it to both budgets if so.
func (p *Picker) Offer(prob float64) bool {
	if p.Done() {
		return false
	}
	p.scanned++
	// Not prob <= probLeft: a NaN probability is picked, not skipped.
	if prob > p.probLeft {
		return false
	}
	p.probLeft -= prob
	p.bytesLeft -= p.pageBytes
	return true
}

// Package migrate executes page migrations on behalf of tiering
// systems, enforcing per-quantum rate limits and destination capacity,
// and accounting the migration traffic so the simulator can charge it
// against tier bandwidth (a migration reads the page from the source
// tier and writes it to the destination tier).
package migrate

import (
	"errors"
	"fmt"

	"colloid/internal/memsys"
	"colloid/internal/obs"
	"colloid/internal/pages"
)

// ErrLimit is returned when the current quantum's migration budget is
// exhausted.
var ErrLimit = errors.New("migrate: per-quantum migration limit reached")

// ErrCapacity is returned when the destination tier lacks free space;
// the caller must demote something first (kswapd-style) or skip.
var ErrCapacity = errors.New("migrate: destination tier full")

// ErrInjected is returned while an injected fault window is active: the
// migration machinery is down and the move did not happen. Placement is
// unchanged, so callers retry naturally on later quanta — against the
// budget those quanta accrue, exactly like a throttled move.
var ErrInjected = errors.New("migrate: injected fault active")

// FaultKind selects how an injected migration fault manifests.
type FaultKind int

const (
	// FaultStall rejects moves outright: no bytes are copied, no budget
	// or bandwidth is consumed (the migration thread is descheduled).
	FaultStall FaultKind = iota
	// FaultFail lets the copy run and then aborts it mid-flight: the
	// budget and tier bandwidth are consumed as if the move happened,
	// but the page stays on its source tier (a Nomad-style failed
	// transactional migration). The wasted bytes are accounted as
	// partial-move traffic.
	FaultFail
)

// String renders the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultStall:
		return "stall"
	case FaultFail:
		return "fail"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// SharedBudget is a cluster-wide proactive-migration token bucket: N
// per-tenant Engines drain it in addition to their own budgets, so the
// sum of all tenants' proactive traffic respects one machine-wide rate
// limit (the migration path — DMA engines, kernel copy threads — is a
// shared resource). The cluster engine calls BeginQuantum once per
// quantum, before the per-tenant engines begin theirs; tenants then
// contend in their deterministic step order.
type SharedBudget struct {
	limitBytesPerSec float64
	budget           int64
	quantumSec       float64
}

// NewSharedBudget returns a shared bucket with the given rate limit in
// bytes/sec (0 means unlimited).
func NewSharedBudget(limitBytesPerSec float64) *SharedBudget {
	if limitBytesPerSec < 0 {
		panic("migrate: negative shared limit")
	}
	return &SharedBudget{limitBytesPerSec: limitBytesPerSec}
}

// BeginQuantum accrues the shared budget (same token-bucket shape as
// the per-engine budget, including the budgetCapSeconds cap).
func (b *SharedBudget) BeginQuantum(quantumSec float64) {
	if quantumSec <= 0 {
		panic("migrate: non-positive quantum")
	}
	b.quantumSec = quantumSec
	if b.limitBytesPerSec == 0 {
		b.budget = 1 << 62
		return
	}
	b.budget += int64(b.limitBytesPerSec * quantumSec)
	if cap := int64(b.limitBytesPerSec * budgetCapSeconds); b.budget > cap {
		b.budget = cap
	}
}

// Remaining returns the shared budget left this quantum.
func (b *SharedBudget) Remaining() int64 { return b.budget }

// LimitBytesPerSec returns the configured shared rate limit (0 =
// unlimited).
func (b *SharedBudget) LimitBytesPerSec() float64 { return b.limitBytesPerSec }

func (b *SharedBudget) consume(bytes int64) {
	if b.budget > bytes {
		b.budget -= bytes
	} else {
		b.budget = 0
	}
}

// Engine applies migrations against one address space.
type Engine struct {
	as *pages.AddressSpace
	// staticLimitBytesPerSec is the system's configured maximum
	// migration rate (both directions combined), as in HeMem's and
	// MEMTIS's migration rate limits.
	staticLimitBytesPerSec float64
	// quantumBudget is the remaining byte budget for this quantum.
	// Only proactive moves (Move, MoveBatch) consume it; forced
	// capacity-pressure demotions record traffic without draining it.
	quantumBudget int64
	// quantumSec is the duration of the current quantum, set by
	// BeginQuantum; TrafficLoad divides by it.
	quantumSec float64
	// shared, when set, is a cluster-wide bucket drained alongside the
	// per-engine budget (see SharedBudget).
	shared *SharedBudget

	// Per-quantum accounting, reset by BeginQuantum.
	movedFrom []int64 // bytes read out of each tier this quantum
	movedTo   []int64 // bytes written into each tier this quantum

	// Cumulative accounting.
	totalBytes      int64
	totalMoves      int64
	totalPromoted   int64 // bytes moved into the default tier
	totalDemoted    int64 // bytes moved out of the default tier
	sharedThrottled int64 // moves refused because the shared budget was the binding cap

	// Injected-fault state: faultQuanta quanta of outage remain (the
	// current one included when faultActive is set by BeginQuantum).
	faultKind    FaultKind
	faultQuanta  int
	faultActive  bool
	failedMoves  int64 // moves rejected by an injected fault
	partialBytes int64 // bytes copied then discarded by FaultFail

	// Instrumentation (nil-safe handles; one throttle event per quantum
	// at most so a starved system can't flood the trace).
	reg              *obs.Registry
	mBytes           *obs.Counter
	mMoves           *obs.Counter
	mThrottled       *obs.Counter
	mSharedThrottled *obs.Counter
	mInjected        *obs.Counter
	mPartialBytes    *obs.Counter
	throttledEmitted bool
	injectedEmitted  bool
}

// NewEngine returns an engine over as with the given migration rate
// limit in bytes/sec (0 means unlimited).
func NewEngine(as *pages.AddressSpace, numTiers int, staticLimitBytesPerSec float64) *Engine {
	if staticLimitBytesPerSec < 0 {
		panic("migrate: negative limit")
	}
	return &Engine{
		as:                     as,
		staticLimitBytesPerSec: staticLimitBytesPerSec,
		movedFrom:              make([]int64, numTiers),
		movedTo:                make([]int64, numTiers),
	}
}

// SetObs installs the metrics registry (nil disables instrumentation).
func (e *Engine) SetObs(r *obs.Registry) {
	e.reg = r
	e.mBytes = r.Counter("migrate_bytes")
	e.mMoves = r.Counter("migrate_moves")
	e.mThrottled = r.Counter("migrate_throttled")
	e.mSharedThrottled = r.Counter("migrate_shared_throttled")
	e.mInjected = r.Counter("migrate_injected_failures")
	e.mPartialBytes = r.Counter("migrate_partial_bytes")
}

// budgetCapSeconds bounds how much unused migration budget can accrue:
// systems whose own quantum is longer than the engine quantum (MEMTIS's
// 500 ms kmigrated) spend several engine quanta's worth of budget in
// one burst, so the budget is a token bucket rather than a hard
// per-engine-quantum slice.
const budgetCapSeconds = 2.0

// BeginQuantum accrues the migration budget (token bucket) and resets
// per-quantum traffic accounting.
func (e *Engine) BeginQuantum(quantumSec float64) {
	if quantumSec <= 0 {
		panic("migrate: non-positive quantum")
	}
	e.quantumSec = quantumSec
	if e.staticLimitBytesPerSec == 0 {
		e.quantumBudget = 1 << 62
	} else {
		e.quantumBudget += int64(e.staticLimitBytesPerSec * quantumSec)
		if cap := int64(e.staticLimitBytesPerSec * budgetCapSeconds); e.quantumBudget > cap {
			e.quantumBudget = cap
		}
	}
	for i := range e.movedFrom {
		e.movedFrom[i] = 0
		e.movedTo[i] = 0
	}
	e.throttledEmitted = false
	e.injectedEmitted = false
	e.faultActive = e.faultQuanta > 0
	if e.faultQuanta > 0 {
		e.faultQuanta--
	}
}

// InjectFault makes the next quanta quanta of migrations fail with the
// given kind (fault injection; see FaultKind for semantics). Calling it
// again replaces any outstanding fault window; quanta <= 0 clears it.
// The window takes effect at the next BeginQuantum, but clearing takes
// effect immediately: a cleared fault must not keep rejecting moves —
// and inflating FaultTotals — for the rest of the current quantum.
func (e *Engine) InjectFault(kind FaultKind, quanta int) {
	if quanta < 0 {
		quanta = 0
	}
	e.faultKind = kind
	e.faultQuanta = quanta
	if quanta == 0 {
		e.faultActive = false
	}
}

// FaultActive reports whether an injected fault governs this quantum.
func (e *Engine) FaultActive() bool { return e.faultActive }

// FaultTotals returns cumulative injected-fault accounting: moves
// rejected by a fault window and bytes copied-then-discarded by
// FaultFail aborts (partial-move traffic that consumed bandwidth and
// budget without relocating a page).
func (e *Engine) FaultTotals() (failedMoves, partialBytes int64) {
	return e.failedMoves, e.partialBytes
}

// injectFailure applies the active fault to an attempted move of p to
// tier to and returns ErrInjected. FaultStall costs nothing; FaultFail
// burns bandwidth for a copy that is then discarded — and budget too,
// but only for proactive moves: forced (capacity-pressure) moves never
// consume the proactive budget, so their aborted copies must not drain
// it either.
func (e *Engine) injectFailure(p pages.Page, to memsys.TierID, forced bool) error {
	e.failedMoves++
	e.mInjected.Inc()
	if e.faultKind == FaultFail {
		if !forced {
			e.consumeBudget(p.Bytes)
		}
		e.movedFrom[p.Tier] += p.Bytes
		e.movedTo[to] += p.Bytes
		e.partialBytes += p.Bytes
		e.mPartialBytes.Add(p.Bytes)
	}
	if !e.injectedEmitted {
		e.injectedEmitted = true
		e.reg.Emit(obs.EvMigrationStall,
			obs.F("kind", float64(e.faultKind)),
			obs.F("remaining_quanta", float64(e.faultQuanta)))
	}
	return ErrInjected
}

// SetShared attaches a cluster-wide shared budget; proactive moves then
// need room in both the engine's own bucket and the shared one. Nil
// detaches.
func (e *Engine) SetShared(b *SharedBudget) { e.shared = b }

// Shared returns the attached shared budget (nil when standalone).
func (e *Engine) Shared() *SharedBudget { return e.shared }

// Budget returns the remaining migration byte budget for this quantum:
// the engine's own bucket, further clamped by the shared bucket when
// one is attached, so systems sizing batches off Budget see the
// effective constraint.
func (e *Engine) Budget() int64 {
	b := e.quantumBudget
	if e.shared != nil && e.shared.budget < b {
		b = e.shared.budget
	}
	return b
}

// StaticLimitBytesPerSec returns the configured rate limit (0 =
// unlimited).
func (e *Engine) StaticLimitBytesPerSec() float64 { return e.staticLimitBytesPerSec }

// Move migrates page id to tier to, consuming budget. It returns
// ErrLimit when the budget cannot cover the page, ErrCapacity when the
// destination is full, or a pages error for invalid moves. A move to
// the page's current tier is a no-op costing nothing.
func (e *Engine) Move(id pages.PageID, to memsys.TierID) error {
	p := e.as.Get(id)
	if p.Tier == to {
		return nil
	}
	if e.faultActive {
		return e.injectFailure(p, to, false)
	}
	if e.Budget() < p.Bytes {
		e.throttle(p)
		return ErrLimit
	}
	if err := e.as.Move(id, to); err != nil {
		return fmt.Errorf("%w (%v)", ErrCapacity, err)
	}
	e.consumeBudget(p.Bytes)
	e.record(p.Tier, to, p.Bytes)
	e.mBytes.Add(p.Bytes)
	e.mMoves.Inc()
	return nil
}

// MoveForced migrates without consuming the rate-limit budget; used for
// capacity-pressure demotions (TPP's kswapd demotes under watermark
// pressure regardless of proactive migration limits). Traffic and
// totals are still accounted, so the simulator charges the copy against
// tier bandwidth like any other migration.
func (e *Engine) MoveForced(id pages.PageID, to memsys.TierID) error {
	p := e.as.Get(id)
	if p.Tier == to {
		return nil
	}
	if e.faultActive {
		return e.injectFailure(p, to, true)
	}
	if err := e.as.Move(id, to); err != nil {
		return fmt.Errorf("%w (%v)", ErrCapacity, err)
	}
	e.record(p.Tier, to, p.Bytes)
	e.mBytes.Add(p.Bytes)
	e.mMoves.Inc()
	return nil
}

// consumeBudget drains the proactive-migration budget (own and shared)
// for a completed move, clamping at zero.
func (e *Engine) consumeBudget(bytes int64) {
	if e.quantumBudget > bytes {
		e.quantumBudget -= bytes
	} else {
		e.quantumBudget = 0
	}
	if e.shared != nil {
		e.shared.consume(bytes)
	}
}

// throttle records a proactive-budget rejection, attributing it to the
// shared cluster bucket when the engine's own budget would have covered
// the move (the cross-tenant contention signal).
func (e *Engine) throttle(p pages.Page) {
	e.mThrottled.Inc()
	if e.shared != nil && e.quantumBudget >= p.Bytes {
		e.sharedThrottled++
		e.mSharedThrottled.Inc()
	}
	if !e.throttledEmitted {
		e.throttledEmitted = true
		e.reg.Emit(obs.EvMigrationThrottled,
			obs.F("want_bytes", float64(p.Bytes)),
			obs.F("budget_bytes", float64(e.Budget())))
	}
}

// record accrues per-quantum traffic and cumulative totals for a
// completed move. It deliberately does not touch the budget: forced
// moves record traffic without consuming it, and MoveBatch drains the
// budget separately so obs emission can be amortized.
func (e *Engine) record(from, to memsys.TierID, bytes int64) {
	e.movedFrom[from] += bytes
	e.movedTo[to] += bytes
	e.totalBytes += bytes
	e.totalMoves++
	if to == memsys.DefaultTier {
		e.totalPromoted += bytes
	}
	if from == memsys.DefaultTier {
		e.totalDemoted += bytes
	}
}

// Request names one desired migration within a batch.
type Request struct {
	ID pages.PageID
	To memsys.TierID
}

// BatchResult summarizes a batch application. Err, when non-nil, is the
// error that stopped the batch at StopIndex; requests after StopIndex
// were not attempted.
type BatchResult struct {
	// Applied counts requests whose pages actually moved.
	Applied int
	// AppliedBytes is the total bytes those moves copied.
	AppliedBytes int64
	// StopIndex is the request index the batch stopped at (len(reqs)
	// when it ran to completion).
	StopIndex int
	// Err is the stopping error: ErrLimit for a MoveBatch budget
	// rejection, or the first failure of a MoveBatchForced.
	Err error
}

// MoveBatch applies the requests in order with the exact semantics of
// calling Move per request and stopping at the first budget rejection —
// the pattern every proactive policy loop follows. Capacity failures
// are recorded per request and skipped (as the loops do); a budget
// rejection stops the batch, and the remaining requests get ErrLimit
// outcomes without being attempted. outcomes, when non-nil, must have
// len(reqs) entries and receives each request's error (nil for applied
// or no-op moves).
//
// Versus a per-page Move loop, the batch amortizes the obs counter
// traffic: one bytes/moves update per batch rather than per page.
func (e *Engine) MoveBatch(reqs []Request, outcomes []error) BatchResult {
	if outcomes != nil && len(outcomes) != len(reqs) {
		panic("migrate: outcomes length does not match requests")
	}
	set := func(i int, err error) {
		if outcomes != nil {
			outcomes[i] = err
		}
	}
	res := BatchResult{StopIndex: len(reqs)}
	var batchMoves int64
	for i, r := range reqs {
		p := e.as.Get(r.ID)
		if p.Tier == r.To {
			set(i, nil)
			continue
		}
		if e.faultActive {
			set(i, e.injectFailure(p, r.To, false))
			continue
		}
		if e.Budget() < p.Bytes {
			e.throttle(p)
			res.StopIndex, res.Err = i, ErrLimit
			for j := i; j < len(reqs); j++ {
				set(j, ErrLimit)
			}
			break
		}
		if err := e.as.Move(r.ID, r.To); err != nil {
			set(i, fmt.Errorf("%w (%v)", ErrCapacity, err))
			continue
		}
		e.consumeBudget(p.Bytes)
		e.record(p.Tier, r.To, p.Bytes)
		res.Applied++
		res.AppliedBytes += p.Bytes
		batchMoves++
		set(i, nil)
	}
	e.mBytes.Add(res.AppliedBytes)
	e.mMoves.Add(batchMoves)
	return res
}

// MoveBatchForced applies forced moves in order, stopping at the first
// failure — the exact semantics of a kswapd-style loop that gives up
// when a demotion fails. No budget is consumed; traffic and totals are
// recorded, with obs counter updates amortized across the batch.
func (e *Engine) MoveBatchForced(reqs []Request) BatchResult {
	res := BatchResult{StopIndex: len(reqs)}
	var batchMoves int64
	for i, r := range reqs {
		p := e.as.Get(r.ID)
		var err error
		switch {
		case p.Tier == r.To:
			continue
		case e.faultActive:
			err = e.injectFailure(p, r.To, true)
		default:
			if mvErr := e.as.Move(r.ID, r.To); mvErr != nil {
				err = fmt.Errorf("%w (%v)", ErrCapacity, mvErr)
			}
		}
		if err != nil {
			res.StopIndex, res.Err = i, err
			break
		}
		e.record(p.Tier, r.To, p.Bytes)
		res.Applied++
		res.AppliedBytes += p.Bytes
		batchMoves++
	}
	e.mBytes.Add(res.AppliedBytes)
	e.mMoves.Add(batchMoves)
	return res
}

// TrafficLoad returns the per-tier bandwidth consumed by this quantum's
// migrations: reads from the source plus writes into the destination,
// both sequential (migration copies whole pages).
func (e *Engine) TrafficLoad() []memsys.Load {
	out := make([]memsys.Load, len(e.movedFrom))
	if e.quantumSec <= 0 {
		return out
	}
	for t := range out {
		out[t].SeqBytes = float64(e.movedFrom[t]+e.movedTo[t]) / e.quantumSec
	}
	return out
}

// QuantumBytes returns the bytes migrated this quantum.
func (e *Engine) QuantumBytes() int64 {
	var sum int64
	for _, b := range e.movedFrom {
		sum += b
	}
	return sum
}

// Totals returns cumulative migration statistics.
func (e *Engine) Totals() (bytes, moves, promotedBytes, demotedBytes int64) {
	return e.totalBytes, e.totalMoves, e.totalPromoted, e.totalDemoted
}

// SharedThrottled returns how many proactive moves were refused because
// the cluster-wide shared budget — not this engine's own rate limit —
// was the binding constraint. Always zero without a shared budget.
func (e *Engine) SharedThrottled() int64 { return e.sharedThrottled }

//! The workspace-wide simulation engine: one two-phase cycle contract and
//! one generic driver for everything that ticks.
//!
//! # The contract
//!
//! The Æthereal NoC is only race-free because every cycle is split into two
//! globally ordered phases (see [`crate::noc`]):
//!
//! 1. **emit** — every producer places at most one word on each outgoing
//!    wire, using only state registered in previous cycles;
//! 2. **absorb** — every consumer registers the word on its incoming wire.
//!
//! This discipline is what makes the GT slot-alignment arithmetic (slot `s`
//! on hop `h` ⇒ slot `s + h` on hop `h + 1`) exact regardless of iteration
//! order. The seed code re-implemented the split, the clock division and
//! the run loops separately in `sim::Noc`, `aethereal_ni::NiKernel`,
//! `aethereal_cfg::NocSystem` and the `aethereal_proto` IP traits; this
//! module is the single definition they all now share.
//!
//! Two traits express the contract at the two levels that exist in the
//! system:
//!
//! * [`Clocked`] — a **self-contained fabric** (a [`Noc`](crate::Noc), a
//!   whole `NocSystem`) that owns its cycle counter. Its phases run in
//!   *emit-then-absorb* order: emission must globally precede absorption so
//!   wires stay race-free.
//! * [`ClockedWith`] — an **endpoint ticked against a context** (an NI
//!   kernel against its [`NiLink`](crate::NiLink), an IP model against its
//!   port stack). Endpoints run *absorb-then-emit* within the fabric's emit
//!   phase: they first drain what the previous cycle delivered, then stage
//!   this cycle's word.
//!
//! [`ClockDomain`] centralizes integer clock division (each NI port "can
//! have a different clock frequency", §4.1 of the paper), replacing the
//! inline `cycle % div == 0` checks that were scattered across the crates.
//!
//! # The driver, the quiescent fast path and the next-event horizon
//!
//! [`Engine::run`] / [`Engine::run_until`] are the only run loops in the
//! workspace. `run` has a slot-table-aware fast path: when a fabric reports
//! itself [`quiescent`](Clocked::quiescent) — no words in flight, no
//! sendable data, no pending credits — ticking it can change nothing except
//! time-derived counters, so the driver batches cycles into
//! [`skip`](Clocked::skip) calls. Implementors of `skip` account for
//! per-slot effects arithmetically (e.g. the NI kernel adds one unused-slot
//! event per reserved slot crossed, walking its slot table instead of the
//! clock).
//!
//! The all-or-nothing skip of the first engine generation is generalized by
//! [`Clocked::next_event`]: a quiescent fabric reports the earliest future
//! cycle at which it could *spontaneously* act again (a paced traffic
//! source's next submission rounded to its port clock's
//! [`ClockDomain::next_edge`], a trace entry's timestamp, …), and `run`
//! skips exactly up to that horizon instead of either skipping everything
//! or nothing. A fully drained fabric reports `u64::MAX`, which degenerates
//! to the old skip-the-rest behavior.
//!
//! `run_until` observes every cycle boundary: the predicate is evaluated
//! before each cycle, and while the fabric is quiescent the tick itself is
//! replaced by the (state-identical, by the quiescence contract) `skip(1)`.
//! [`Engine::run_until_horizon`] is the explicit opt-in for *cycle-driven*
//! predicates, batching whole quiescent stretches up to the next-event
//! horizon between predicate checks.

use crate::word::SLOT_WORDS;

/// Integer clock divider against the 500 MHz base network clock.
///
/// A domain with divisor `d` has a clock edge on every base cycle that is a
/// multiple of `d`; components in the domain tick only on edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClockDomain {
    div: u32,
}

impl ClockDomain {
    /// The base (network) clock domain: an edge every cycle.
    pub const BASE: ClockDomain = ClockDomain { div: 1 };

    /// Creates a domain dividing the base clock by `div`.
    ///
    /// # Panics
    ///
    /// Panics if `div` is zero.
    pub fn new(div: u32) -> Self {
        assert!(div >= 1, "clock divisor must be ≥ 1");
        ClockDomain { div }
    }

    /// The divisor.
    #[inline]
    pub fn div(self) -> u32 {
        self.div
    }

    /// Whether this domain has a clock edge at base cycle `cycle`. The base
    /// domain ticks every cycle without paying for a 64-bit division.
    #[inline]
    pub fn ticks_at(self, cycle: u64) -> bool {
        self.div == 1 || cycle.is_multiple_of(u64::from(self.div))
    }

    /// The first edge at or after `cycle`.
    #[inline]
    pub fn next_edge(self, cycle: u64) -> u64 {
        let d = u64::from(self.div);
        cycle.div_ceil(d) * d
    }

    /// Number of edges in the half-open base-cycle window
    /// `[start, start + len)`.
    #[inline]
    pub fn edges_in(self, start: u64, len: u64) -> u64 {
        let d = u64::from(self.div);
        // Edges in [0, n) is ceil(n / d).
        (start + len).div_ceil(d) - start.div_ceil(d)
    }

    /// Completed local cycles after `cycle` base cycles.
    #[inline]
    pub fn local_now(self, cycle: u64) -> u64 {
        cycle / u64::from(self.div)
    }
}

impl Default for ClockDomain {
    fn default() -> Self {
        ClockDomain::BASE
    }
}

/// A self-contained fabric advancing under the two-phase cycle contract.
///
/// Phase order is **emit then absorb**: all producers place words on wires
/// from previous-cycle state, then all consumers register them. `absorb`
/// completes the cycle and must advance [`now`](Clocked::now) by one.
pub trait Clocked {
    /// The current base cycle (number of completed cycles).
    fn now(&self) -> u64;

    /// Phase 1: place at most one word on every outgoing wire, based on
    /// state from previous cycles.
    fn emit(&mut self);

    /// Phase 2: register arriving words, return credits, advance the cycle
    /// counter.
    fn absorb(&mut self);

    /// Whether a tick can change nothing but time-derived counters: no
    /// words in flight, no queued work, no pending credits, and no internal
    /// source that could create any without external input.
    ///
    /// Returning `true` licenses [`Engine::run`] to replace ticks with one
    /// [`skip`](Clocked::skip). The default is `false`: never skip.
    fn quiescent(&self) -> bool {
        false
    }

    /// Advances time-derived state by `cycles` cycles as if ticked while
    /// [`quiescent`](Clocked::quiescent); must be overridden (together with
    /// `quiescent`) to make the fast path effective. The default simply
    /// ticks, which is always correct.
    fn skip(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.emit();
            self.absorb();
        }
    }

    /// The earliest base cycle at which the fabric could act again *on its
    /// own* — without any external input — given that it is currently
    /// [`quiescent`](Clocked::quiescent): a paced generator's next
    /// submission (rounded up to its port clock's
    /// [`ClockDomain::next_edge`]), a trace entry's timestamp, and so on.
    ///
    /// Only consulted while quiescent; [`Engine::run`] (and the shard
    /// activity-set scheduler in [`crate::shard`]) will
    /// [`skip`](Clocked::skip) at most up to this horizon, never past it.
    /// `u64::MAX` — the default — means "never": nothing can happen without
    /// external input, which reproduces the original skip-the-rest fast
    /// path.
    fn next_event(&self, now: u64) -> u64 {
        let _ = now;
        u64::MAX
    }
}

/// An endpoint ticked against an external context: an NI kernel against its
/// router link, an IP model against its port stack.
///
/// Phase order is **absorb then emit**, the mirror of [`Clocked`]: within
/// the fabric's emit phase an endpoint first drains what the previous
/// cycle's absorb delivered to it, then stages this cycle's word.
pub trait ClockedWith<Ctx: ?Sized> {
    /// Drain phase: consume everything the previous cycle delivered.
    fn absorb(&mut self, ctx: &mut Ctx, cycle: u64);

    /// Produce phase: stage at most one word per output toward `ctx`.
    fn emit(&mut self, ctx: &mut Ctx, cycle: u64);

    /// One endpoint cycle: absorb, then emit.
    fn tick(&mut self, ctx: &mut Ctx, cycle: u64) {
        self.absorb(ctx, cycle);
        self.emit(ctx, cycle);
    }

    /// Endpoint analogue of [`Clocked::quiescent`]; see there.
    fn quiescent(&self) -> bool {
        false
    }

    /// Endpoint analogue of [`Clocked::skip`]: advance time-derived state
    /// across `[from_cycle, from_cycle + cycles)` without ticking. Only
    /// called while [`quiescent`](ClockedWith::quiescent); implementors
    /// overriding `quiescent` must override this accordingly.
    fn skip(&mut self, from_cycle: u64, cycles: u64) {
        let _ = (from_cycle, cycles);
    }

    /// Endpoint analogue of [`Clocked::next_event`]: the earliest base
    /// cycle at which this endpoint could act spontaneously while
    /// quiescent. Containers (an NI over its shells, a system over its
    /// regions) compose their own horizon as the minimum over their parts.
    fn next_event(&self, now: u64) -> u64 {
        let _ = now;
        u64::MAX
    }

    /// The earliest base cycle ≥ `now` at which this endpoint could act
    /// without external input — `now` itself while active. Unlike the
    /// [`quiescent`](ClockedWith::quiescent)/[`next_event`](ClockedWith::next_event)
    /// pair, this may report a *bounded* horizon for an endpoint that still
    /// holds state, as long as every tick strictly before the horizon is a
    /// no-op: the NI kernel uses it to report the next reserved slot at
    /// which queued GT data becomes sendable, so a region draining a GT
    /// stream can sleep between its slots instead of ticking through them.
    ///
    /// Implementors overriding this must keep [`skip`](ClockedWith::skip)
    /// exact over any span that ends at or before the reported horizon.
    fn dormant_until(&self, now: u64) -> u64 {
        if self.quiescent() {
            self.next_event(now)
        } else {
            now
        }
    }
}

/// The single generic cycle driver.
///
/// Every `run`/`run_until` loop in the workspace routes through these
/// associated functions; no component carries its own driver.
#[derive(Debug, Clone, Copy, Default)]
pub struct Engine;

impl Engine {
    /// Advances `fabric` by exactly one cycle: emit, then absorb.
    #[inline]
    pub fn tick<C: Clocked + ?Sized>(fabric: &mut C) {
        fabric.emit();
        fabric.absorb();
    }

    /// Runs `cycles` cycles.
    ///
    /// When the fabric reports itself quiescent and at least one whole slot
    /// remains, the cycles up to the fabric's [`Clocked::next_event`]
    /// horizon are batched into one [`Clocked::skip`] — quiescence cannot
    /// end before that horizon without external input, so the skip is
    /// exact, not approximate. A fully drained fabric (horizon `u64::MAX`)
    /// skips everything that remains in one call.
    pub fn run<C: Clocked + ?Sized>(fabric: &mut C, cycles: u64) {
        let mut remaining = cycles;
        while remaining > 0 {
            if remaining >= SLOT_WORDS && fabric.quiescent() {
                let now = fabric.now();
                let chunk = remaining.min(fabric.next_event(now).saturating_sub(now));
                if chunk >= SLOT_WORDS {
                    fabric.skip(chunk);
                    remaining -= chunk;
                    continue;
                }
            }
            Self::tick(fabric);
            remaining -= 1;
        }
    }

    /// Runs until `pred` holds or `max_cycles` elapse; returns whether the
    /// predicate was met.
    ///
    /// The predicate observes **every** cycle boundary, so the stopping
    /// cycle is exact for any predicate. While the fabric is quiescent the
    /// tick is replaced by a `skip(1)` — state-identical by the quiescence
    /// contract, but without the per-cycle emit/absorb walk — so long waits
    /// on an idle system no longer pay for full ticks. For cycle-driven
    /// predicates that tolerate coarser stopping points, see
    /// [`Engine::run_until_horizon`].
    pub fn run_until<C, P>(fabric: &mut C, mut pred: P, max_cycles: u64) -> bool
    where
        C: Clocked + ?Sized,
        P: FnMut(&C) -> bool,
    {
        for _ in 0..max_cycles {
            if pred(fabric) {
                return true;
            }
            if fabric.quiescent() {
                fabric.skip(1);
            } else {
                Self::tick(fabric);
            }
        }
        pred(fabric)
    }

    /// Like [`Engine::run_until`], but batches quiescent stretches up to
    /// the [`Clocked::next_event`] horizon between predicate checks — the
    /// explicit opt-in for **cycle-driven** predicates (monotone once-true
    /// conditions such as "enough cycles elapsed" or "workload done").
    ///
    /// While the fabric is quiescent the predicate is *not* evaluated at
    /// every intermediate cycle, so the stopping cycle may overshoot the
    /// predicate's first-true cycle — by at most the distance to the next
    /// event horizon (or `max_cycles`). State-inspecting predicates that
    /// need the exact boundary belong on [`Engine::run_until`].
    pub fn run_until_horizon<C, P>(fabric: &mut C, mut pred: P, max_cycles: u64) -> bool
    where
        C: Clocked + ?Sized,
        P: FnMut(&C) -> bool,
    {
        let mut remaining = max_cycles;
        while remaining > 0 {
            if pred(fabric) {
                return true;
            }
            if remaining >= SLOT_WORDS && fabric.quiescent() {
                let now = fabric.now();
                let chunk = remaining.min(fabric.next_event(now).saturating_sub(now));
                if chunk >= SLOT_WORDS {
                    fabric.skip(chunk);
                    remaining -= chunk;
                    continue;
                }
            }
            Self::tick(fabric);
            remaining -= 1;
        }
        pred(fabric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fabric that counts phase calls and can pretend to be quiescent.
    struct Probe {
        cycle: u64,
        emits: u64,
        absorbs: u64,
        skipped: u64,
        skip_calls: u64,
        quiescent_after: u64,
        /// Spontaneous-event schedule: while quiescent, the next event is
        /// the first entry after the current cycle (`u64::MAX` beyond).
        events: Vec<u64>,
    }

    impl Probe {
        fn new(quiescent_after: u64) -> Self {
            Probe {
                cycle: 0,
                emits: 0,
                absorbs: 0,
                skipped: 0,
                skip_calls: 0,
                quiescent_after,
                events: Vec::new(),
            }
        }
    }

    impl Clocked for Probe {
        fn now(&self) -> u64 {
            self.cycle
        }

        fn emit(&mut self) {
            assert_eq!(self.emits, self.absorbs, "emit must precede absorb");
            self.emits += 1;
        }

        fn absorb(&mut self) {
            assert_eq!(self.emits, self.absorbs + 1, "absorb follows emit");
            self.absorbs += 1;
            self.cycle += 1;
        }

        fn quiescent(&self) -> bool {
            self.cycle >= self.quiescent_after && !self.events.contains(&self.cycle)
        }

        fn skip(&mut self, cycles: u64) {
            self.skipped += cycles;
            self.skip_calls += 1;
            self.cycle += cycles;
        }

        fn next_event(&self, now: u64) -> u64 {
            self.events
                .iter()
                .copied()
                .filter(|&e| e > now)
                .min()
                .unwrap_or(u64::MAX)
        }
    }

    #[test]
    fn tick_orders_phases() {
        let mut p = Probe::new(u64::MAX);
        Engine::tick(&mut p);
        assert_eq!((p.emits, p.absorbs, p.now()), (1, 1, 1));
    }

    #[test]
    fn run_ticks_until_quiescent_then_skips() {
        let mut p = Probe::new(5);
        Engine::run(&mut p, 100);
        assert_eq!(p.now(), 100);
        assert_eq!(p.emits, 5, "ticked only while active");
        assert_eq!(p.skipped, 95, "rest batched into one skip");
    }

    #[test]
    fn run_never_skips_below_a_slot() {
        let mut p = Probe::new(0);
        Engine::run(&mut p, SLOT_WORDS - 1);
        assert_eq!(p.skipped, 0);
        assert_eq!(p.emits, SLOT_WORDS - 1);
    }

    #[test]
    fn run_skips_only_to_the_next_event_horizon() {
        let mut p = Probe::new(0);
        p.events = vec![40, 80];
        Engine::run(&mut p, 100);
        assert_eq!(p.now(), 100);
        // Three quiescent stretches ([0,40), [41,80), [81,100)), one skip
        // each, plus one real tick at each event cycle.
        assert_eq!(p.skip_calls, 3, "one batched skip per idle stretch");
        assert_eq!(p.emits, 2, "ticked exactly at the event cycles");
        assert_eq!(p.skipped, 98);
    }

    #[test]
    fn until_pred_stops_exactly_and_replaces_idle_ticks_with_unit_skips() {
        let mut p = Probe::new(0); // quiescent from the start
        let met = Engine::run_until(&mut p, |f| f.now() >= 7, 100);
        assert!(met);
        assert_eq!(p.now(), 7, "stops on the exact cycle");
        assert_eq!(p.emits, 0, "quiescent cycles never pay for a full tick");
        assert_eq!(p.skipped, 7, "advanced by unit skips instead");
        assert_eq!(p.skip_calls, 7, "…observing every cycle boundary");
    }

    #[test]
    fn until_pred_times_out() {
        let mut p = Probe::new(u64::MAX);
        let met = Engine::run_until(&mut p, |_| false, 9);
        assert!(!met);
        assert_eq!(p.now(), 9);
        assert_eq!(p.emits, 9, "active fabric is fully ticked");
    }

    #[test]
    fn until_horizon_batches_idle_stretches() {
        let mut p = Probe::new(0);
        p.events = vec![50];
        let met = Engine::run_until_horizon(&mut p, |f| f.now() >= 80, 1_000);
        assert!(met);
        // One batch to the event at 50, a tick there, then one batch that
        // overshoots the predicate's first-true cycle — stopping at the
        // horizon bound (here: max_cycles), as documented.
        assert!(p.now() >= 80);
        assert_eq!(p.emits, 1, "only the event cycle is ticked");
        assert!(
            p.skip_calls <= 2,
            "idle stretches batched: {}",
            p.skip_calls
        );
    }

    #[test]
    fn until_horizon_checks_pred_between_batches() {
        let mut p = Probe::new(0);
        p.events = vec![30];
        // Predicate becomes true exactly at the event cycle: the batch ends
        // there, the check fires before any further work.
        let met = Engine::run_until_horizon(&mut p, |f| f.now() >= 30, 1_000);
        assert!(met);
        assert_eq!(p.now(), 30, "stops at the horizon boundary");
        assert_eq!(p.emits, 0);
    }

    #[test]
    fn clock_domain_edges() {
        let d = ClockDomain::new(3);
        assert!(d.ticks_at(0) && d.ticks_at(3) && !d.ticks_at(4));
        assert_eq!(d.next_edge(0), 0);
        assert_eq!(d.next_edge(1), 3);
        assert_eq!(d.next_edge(3), 3);
        assert_eq!(d.edges_in(0, 9), 3);
        assert_eq!(d.edges_in(1, 3), 1); // only cycle 3
        assert_eq!(d.edges_in(4, 2), 0);
        assert_eq!(d.local_now(8), 2);
        assert_eq!(ClockDomain::BASE.edges_in(17, 5), 5);
    }

    #[test]
    #[should_panic(expected = "divisor")]
    fn zero_divisor_panics() {
        let _ = ClockDomain::new(0);
    }
}

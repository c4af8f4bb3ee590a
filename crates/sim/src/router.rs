//! The combined GT/BE router (Rijpkema et al., DATE 2003), as seen from the
//! network interface.
//!
//! * **GT datapath**: a GT word absorbed at cycle *t* is forwarded with a
//!   fixed latency of one slot ([`SLOT_WORDS`] cycles) and never buffered.
//!   Which output it takes is decided by the source route in the header
//!   (path-shifting); continuation words follow the header's output. In the
//!   paper's *centralized* configuration model the routers carry **no slot
//!   tables** — contention-freedom is established by the centralized slot
//!   allocator and merely *checked* here ([`Router::gt_conflicts`]).
//! * **BE datapath**: input-queued wormhole switching. Each output port is
//!   granted to one worm at a time by round-robin arbitration; forwarding
//!   requires a link-level credit for the downstream input queue; GT words
//!   have absolute priority for the output in any cycle.
//!
//! The router is driven by [`Noc`](crate::Noc) in two phases per cycle:
//! [`Router::emit`] (produce at most one word per output, using state from
//! the previous cycle) and [`Router::absorb`] (register arriving words).
//!
//! **Gateway rewrite** (two-level routing, see [`crate::path`]): a header
//! arriving with its path exhausted *and more words behind it* marks this
//! router as the route's gateway. The router holds the header, consumes the
//! next word of the worm — the *continuation word* carrying the next path
//! segment — and re-emits the header with that segment installed (upper
//! header bits preserved, first hop consumed as usual). The rewrite
//! shortens the packet by one word. For **GT** (hold in
//! [`Router::absorb`]) it is aligned to the slot grid: the rewritten
//! header and every word behind it leave one whole slot ([`SLOT_WORDS`]
//! cycles) later than a plain hop, so downstream slot occupancy shifts by
//! whole slots and the centralized allocator reserves exactly one slot
//! per link — never a spill pair. For **BE** (elastic, no slots; hold at
//! the input-queue head in [`Router::emit`]) the rewrite costs one cycle.
//! Traffic whose route fits one header never exhausts at
//! a router, so the seed behavior is untouched. BE gateway rewrites need
//! the header and its continuation queued together, so BE input queues
//! must hold at least 2 words for two-level BE traffic (the default is 8).

use crate::path::{Path, PortIdx, PATH_BITS};
use crate::ring::Ring;
use crate::word::{LinkWord, WordClass, SLOT_WORDS};

/// Default BE input-queue depth in words (the paper argues for *small*
/// packet buffers as the TDM scheme's cost advantage; 8 words = 2–3 flits).
pub const DEFAULT_BE_QUEUE_WORDS: usize = 8;

/// A scheduled GT emission.
#[derive(Debug, Clone, Copy)]
struct GtEvent {
    due: u64,
    word: LinkWord,
}

/// One GT/BE router.
#[derive(Debug, Clone)]
pub struct Router {
    id: usize,
    n_ports: usize,
    be_capacity: usize,
    /// Per input: BE queue (fixed-capacity ring; the credit budget granted
    /// upstream equals its capacity, so it can never overflow).
    be_q: Vec<Ring<LinkWord>>,
    /// Per input: output claimed by the BE worm whose header has been
    /// forwarded but whose tail has not.
    be_route: Vec<Option<PortIdx>>,
    /// Per input: output of the in-flight GT worm.
    gt_route: Vec<Option<PortIdx>>,
    /// Per input: a GT header held for gateway rewrite (path exhausted
    /// here; the next word of the worm carries the next route segment).
    gt_hold: Vec<Option<LinkWord>>,
    /// Per input: extra forwarding delay of the in-flight GT worm, in
    /// cycles. A gateway rewrite is aligned to the next slot boundary —
    /// the rewritten header and every word behind it leave one whole slot
    /// (not one cycle) later than a plain hop, so downstream slot
    /// occupancy stays whole-slot and the allocator never needs a spill
    /// reservation.
    gt_pad: Vec<u64>,
    /// Per output: future GT emissions, ordered by due cycle. Bounded by
    /// one absorb per input per cycle over two slots of lifetime (plain
    /// hop latency plus the gateway alignment pad).
    gt_cal: Vec<Ring<GtEvent>>,
    /// Per output: input owning the output for a BE worm.
    be_owner: Vec<Option<usize>>,
    /// Maintained ready-output bitmask, bit per output with scheduled GT
    /// emissions (set on calendar push, cleared when the calendar drains).
    /// Together with the per-emit BE head scan it lets [`Router::emit_into`]
    /// visit only outputs that can actually emit.
    gt_mask: u64,
    /// Per output: round-robin pointer.
    rr: Vec<usize>,
    /// Per output: link-level BE credits toward the downstream input queue.
    out_credits: Vec<u32>,
    gt_conflicts: u64,
    be_overflows: u64,
    gt_orphans: u64,
}

/// One word emitted by a router in a cycle.
#[derive(Debug, Clone, Copy)]
pub struct Emission {
    /// Output port the word leaves through.
    pub port: PortIdx,
    /// The word.
    pub word: LinkWord,
}

/// Result of [`Router::emit`]: emissions plus the inputs that dequeued a BE
/// word this cycle (whose upstream producers earn one credit each).
///
/// The buffers are reusable: [`Router::emit_into`] clears and refills a
/// caller-owned instance, so the steady-state tick allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct EmitResult {
    /// Words placed on output wires.
    pub emissions: Vec<Emission>,
    /// Input ports that freed one BE queue slot.
    pub be_dequeues: Vec<PortIdx>,
}

impl EmitResult {
    /// Empties both buffers, keeping their allocations.
    pub fn clear(&mut self) {
        self.emissions.clear();
        self.be_dequeues.clear();
    }
}

impl Router {
    /// Creates a router with `n_ports` ports and the given BE input-queue
    /// capacity in words.
    ///
    /// # Panics
    ///
    /// Panics if `n_ports` is zero or `be_capacity` is zero.
    pub fn new(id: usize, n_ports: usize, be_capacity: usize) -> Self {
        assert!(n_ports > 0, "router needs at least one port");
        assert!(n_ports <= 64, "ready mask holds at most 64 ports");
        assert!(be_capacity > 0, "BE queues need capacity");
        Router {
            id,
            n_ports,
            be_capacity,
            be_q: (0..n_ports)
                .map(|_| Ring::with_capacity(be_capacity))
                .collect(),
            be_route: vec![None; n_ports],
            gt_route: vec![None; n_ports],
            gt_hold: vec![None; n_ports],
            gt_pad: vec![0; n_ports],
            gt_cal: (0..n_ports)
                .map(|_| Ring::with_capacity(n_ports * (2 * SLOT_WORDS as usize + 1)))
                .collect(),
            be_owner: vec![None; n_ports],
            gt_mask: 0,
            rr: vec![0; n_ports],
            out_credits: vec![0; n_ports], // Noc sets real initial credits per link
            gt_conflicts: 0,
            be_overflows: 0,
            gt_orphans: 0,
        }
    }

    /// Router id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.n_ports
    }

    /// BE input-queue capacity in words (the credit budget granted to the
    /// upstream sender).
    pub fn be_capacity(&self) -> usize {
        self.be_capacity
    }

    /// Sets the initial BE credit budget for an output (the downstream
    /// queue's capacity). Called by [`Noc`](crate::Noc) during wiring.
    pub(crate) fn set_out_credits(&mut self, port: PortIdx, credits: u32) {
        self.out_credits[port as usize] = credits;
    }

    /// Returns one BE credit to an output (downstream freed a slot).
    pub(crate) fn add_out_credit(&mut self, port: PortIdx) {
        self.out_credits[port as usize] += 1;
    }

    /// Current BE credits available toward the downstream of `port`.
    pub fn out_credits(&self, port: PortIdx) -> u32 {
        self.out_credits[port as usize]
    }

    /// BE words currently queued at input `port`.
    pub fn be_queued(&self, port: PortIdx) -> usize {
        self.be_q[port as usize].len()
    }

    /// GT contention events seen so far (must stay zero under a correct
    /// slot allocation).
    pub fn gt_conflicts(&self) -> u64 {
        self.gt_conflicts
    }

    /// BE words that arrived at a full queue (credit discipline violations;
    /// must stay zero).
    pub fn be_overflows(&self) -> u64 {
        self.be_overflows
    }

    /// GT payload words that arrived with no preceding header (protocol
    /// violations; must stay zero).
    pub fn gt_orphans(&self) -> u64 {
        self.gt_orphans
    }

    /// Whether the router holds no queued BE words, no scheduled GT
    /// emissions and no header held for gateway rewrite — a tick of an idle
    /// router moves nothing.
    pub fn idle(&self) -> bool {
        self.calendar_idle() && self.gt_cal.iter().all(Ring::is_empty)
    }

    /// Whether the only state the router holds is its GT calendars: no
    /// queued BE words and no header held for gateway rewrite. Such a
    /// router does nothing until [`Router::next_gt_due`] — the basis of the
    /// calendar-sleep path in [`crate::shard`] and
    /// [`Engine::run`](crate::engine::Engine::run).
    pub fn calendar_idle(&self) -> bool {
        self.be_q.iter().all(Ring::is_empty) && self.gt_hold.iter().all(Option::is_none)
    }

    /// Whether [`Router::emit_into`] can produce anything: some input
    /// queues a BE word or some output has a scheduled GT emission.
    /// Otherwise its ready mask is empty and emit changes nothing.
    pub(crate) fn may_emit(&self) -> bool {
        self.gt_mask != 0 || self.be_q.iter().any(|q| !q.is_empty())
    }

    /// The earliest due cycle across all scheduled GT emissions, or
    /// `u64::MAX` when every calendar is empty. Each per-output calendar is
    /// due-ordered, so only the fronts of the ready outputs are consulted.
    pub fn next_gt_due(&self) -> u64 {
        let mut due = u64::MAX;
        let mut rest = self.gt_mask;
        while rest != 0 {
            let out = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if let Some(ev) = self.gt_cal[out].front() {
                due = due.min(ev.due);
            }
        }
        due
    }

    /// Whether the router carries no best-effort state at all: empty BE
    /// queues, no BE worm in flight on any input or output. One of the
    /// structural pre-gates of the analytical fast-forward backend (BE
    /// arbitration depends on cross-stream timing, which the periodic
    /// certification does not model).
    pub fn be_quiet(&self) -> bool {
        self.be_q.iter().all(Ring::is_empty)
            && self.be_route.iter().all(Option::is_none)
            && self.be_owner.iter().all(Option::is_none)
    }

    /// Walks the router's complete wire-visible state through the
    /// fast-forward classification (see [`crate::ff`]): worm-tracking and
    /// credit state as exact control items, calendar due cycles as sliding
    /// stamps, in-flight words via [`ff::visit_word`](crate::ff::visit_word),
    /// violation counters as periodic counters.
    pub fn ff_visit(&mut self, v: &mut dyn crate::ff::FfVisit) {
        use crate::ff::{visit_opt_word, visit_word};
        for q in &mut self.be_q {
            v.exact(q.len() as u64);
            for i in 0..q.len() {
                visit_word(q.get_mut(i).expect("index in range"), v);
            }
        }
        for r in &self.be_route {
            v.exact(r.map_or(0, |p| p as u64 + 1));
        }
        for r in &self.gt_route {
            v.exact(r.map_or(0, |p| p as u64 + 1));
        }
        for h in &mut self.gt_hold {
            visit_opt_word(h, v);
        }
        for p in &self.gt_pad {
            v.exact(*p);
        }
        for cal in &mut self.gt_cal {
            v.exact(cal.len() as u64);
            for i in 0..cal.len() {
                let ev = cal.get_mut(i).expect("index in range");
                v.stamp(&mut ev.due);
                visit_word(&mut ev.word, v);
            }
        }
        for o in &self.be_owner {
            v.exact(o.map_or(0, |p| p as u64 + 1));
        }
        for r in &self.rr {
            v.exact(*r as u64);
        }
        for c in &self.out_credits {
            v.exact(u64::from(*c));
        }
        v.counter(&mut self.gt_conflicts);
        v.counter(&mut self.be_overflows);
        v.counter(&mut self.gt_orphans);
    }

    /// Walks the router's complete dynamic state through the persistence
    /// visitor (see [`crate::persist`]): the snapshot twin of
    /// [`Router::ff_visit`], field for field, plus the ready-output mask
    /// (cheap to carry, and carrying it keeps the walk a pure field list
    /// with nothing to re-derive).
    fn persist_walk(&mut self, p: &mut dyn crate::persist::PersistVisit) {
        use crate::persist::{
            persist_opt_usize, persist_opt_word, persist_ring, persist_u32, persist_usize,
            persist_word,
        };
        let empty = LinkWord::header_only(0, WordClass::BestEffort);
        let opt_port = |o: &mut Option<PortIdx>, p: &mut dyn crate::persist::PersistVisit| {
            let mut wide = o.map(usize::from);
            persist_opt_usize(&mut wide, p);
            *o = wide.map(|x| x as PortIdx);
        };
        for i in 0..self.n_ports {
            persist_ring(&mut self.be_q[i], empty, p, |w, p| persist_word(w, p));
            opt_port(&mut self.be_route[i], p);
            opt_port(&mut self.gt_route[i], p);
            persist_opt_word(&mut self.gt_hold[i], p);
            p.item(&mut self.gt_pad[i]);
            persist_ring(
                &mut self.gt_cal[i],
                GtEvent {
                    due: 0,
                    word: empty,
                },
                p,
                |ev, p| {
                    p.item(&mut ev.due);
                    persist_word(&mut ev.word, p);
                },
            );
            persist_opt_usize(&mut self.be_owner[i], p);
            persist_usize(&mut self.rr[i], p);
            persist_u32(&mut self.out_credits[i], p);
        }
        p.item(&mut self.gt_mask);
        p.item(&mut self.gt_conflicts);
        p.item(&mut self.be_overflows);
        p.item(&mut self.gt_orphans);
    }

    /// Installs the next route segment of a continuation word into a held
    /// exhausted header: the rewritten header keeps the held word's upper
    /// (credits/flush/qid) bits, takes its first hop from the continuation
    /// path and inherits the continuation's tail marker. Returns `None` for
    /// an empty continuation path (a misroute).
    fn rewrite_header(held: LinkWord, cont: LinkWord) -> Option<(PortIdx, LinkWord)> {
        let mask = (1u32 << PATH_BITS) - 1;
        let cont_path = cont.word() & mask;
        let out = Path::peek_encoded(cont_path)?;
        let bits = (held.word() & !mask) | Path::shift_encoded(cont_path);
        let rewritten = if cont.is_tail() {
            LinkWord::header_only(bits, held.class())
        } else {
            LinkWord::header(bits, held.class())
        };
        Some((out, rewritten))
    }

    /// The output a queued BE header at the head of `input` is a candidate
    /// for, resolving gateway rewrites: an exhausted header is a candidate
    /// only once its continuation word is queued behind it (second return
    /// value `true`).
    fn be_candidate(&self, input: usize) -> Option<(PortIdx, LinkWord, bool)> {
        let &head = self.be_q[input].front()?;
        if !head.is_header() {
            return None;
        }
        match Path::peek_encoded(head.word()) {
            Some(next) => {
                let fwd = head.with_word(Path::shift_header(head.word()));
                Some((next, fwd, false))
            }
            None if !head.is_tail() => {
                let &cont = self.be_q[input].get(1)?;
                let (next, rewritten) = Self::rewrite_header(head, cont)?;
                Some((next, rewritten, true))
            }
            // A single-word packet exhausted at a router is misrouted;
            // leave it blocking its input (defensive, as for orphan
            // continuations — cannot happen with well-formed traffic).
            None => None,
        }
    }

    /// Phase 1: produce at most one word per output for `cycle`.
    ///
    /// GT emissions due this cycle take absolute priority; otherwise a BE
    /// worm holding the output continues, and otherwise round-robin
    /// arbitration picks a new BE worm whose header routes to the output.
    pub fn emit(&mut self, cycle: u64) -> EmitResult {
        let mut result = EmitResult::default();
        self.emit_into(cycle, &mut result);
        result
    }

    /// Phase 1 without allocation: clears `result` and fills it (see
    /// [`Router::emit`] for the arbitration rules).
    ///
    /// Only *ready* outputs are visited: the maintained GT mask marks
    /// outputs with scheduled calendar entries, and one pass over the input
    /// heads marks outputs with a continuing worm or an arbitrable header —
    /// an idle or lightly loaded router no longer walks every output every
    /// cycle.
    pub fn emit_into(&mut self, cycle: u64, result: &mut EmitResult) {
        result.clear();
        let mut ready = self.gt_mask;
        for input in 0..self.n_ports {
            if self.be_q[input].is_empty() {
                continue;
            }
            match self.be_route[input] {
                // A worm mid-flight continues toward its claimed output.
                Some(out) => ready |= 1 << out,
                // A header at the head is an arbitration candidate for the
                // output its (possibly rewritten) path names.
                None => match self.be_candidate(input) {
                    Some((next, _, _)) if usize::from(next) < self.n_ports => {
                        ready |= 1 << next;
                    }
                    // Unforwardable head (only possible under an injected
                    // fault): a header whose corrupted path names a port
                    // this router does not have, an exhausted header whose
                    // continuation names none, or an orphan continuation
                    // whose header was lost upstream. Discard one word per
                    // cycle, returning its queue slot's credit upstream,
                    // so the input does not stall forever. An exhausted
                    // non-tail header still waiting for its continuation
                    // word is the one legitimate `None`: leave it.
                    Some(_) => {
                        self.be_q[input].pop_front();
                        result.be_dequeues.push(input as PortIdx);
                    }
                    None => {
                        let &head = self.be_q[input].front().expect("non-empty checked");
                        let gateway_wait =
                            head.is_header() && !head.is_tail() && self.be_q[input].len() < 2;
                        if !gateway_wait {
                            self.be_q[input].pop_front();
                            result.be_dequeues.push(input as PortIdx);
                        }
                    }
                },
            }
        }
        let mut rest = ready;
        while rest != 0 {
            let out = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            // 1. GT words due now win the output unconditionally.
            if let Some(ev) = self.gt_cal[out].front() {
                debug_assert!(ev.due >= cycle, "GT calendar fell behind");
                if ev.due == cycle {
                    let ev = self.gt_cal[out].pop_front().expect("front checked");
                    // A second event due the same cycle is a contention
                    // violation: record and drop it.
                    while self.gt_cal[out].front().is_some_and(|e| e.due == cycle) {
                        self.gt_cal[out].pop_front();
                        self.gt_conflicts += 1;
                    }
                    if self.gt_cal[out].is_empty() {
                        self.gt_mask &= !(1 << out);
                    }
                    result.emissions.push(Emission {
                        port: out as PortIdx,
                        word: ev.word,
                    });
                    continue;
                }
            }
            // 2. A BE worm already owning this output continues.
            if let Some(input) = self.be_owner[out] {
                if let Some(&head) = self.be_q[input].front() {
                    if head.is_header() {
                        // A fresh header at the head while the worm is
                        // mid-flight means the worm's tail was lost on the
                        // upstream link (only possible under an injected
                        // link fault). Retire the stale worm so the header
                        // re-arbitrates instead of being forwarded into the
                        // dead worm's path; the truncated packet surfaces
                        // downstream as NI `rx_drops`.
                        self.be_owner[out] = None;
                        self.be_route[input] = None;
                        continue;
                    }
                    if self.out_credits[out] == 0 {
                        continue;
                    }
                    self.be_q[input].pop_front();
                    self.out_credits[out] -= 1;
                    if head.is_tail() {
                        self.be_owner[out] = None;
                        self.be_route[input] = None;
                    }
                    result.be_dequeues.push(input as PortIdx);
                    result.emissions.push(Emission {
                        port: out as PortIdx,
                        word: head,
                    });
                }
                continue;
            }
            // 3. Round-robin among inputs whose head is a header routed here.
            if self.out_credits[out] == 0 {
                continue;
            }
            let start = self.rr[out];
            for k in 0..self.n_ports {
                let input = (start + k) % self.n_ports;
                // An input whose worm is mid-flight elsewhere cannot start a
                // new worm; its head is a continuation word anyway. Non-
                // header heads (orphan continuations, worm state lost) and
                // not-yet-rewritable gateway headers are skipped by
                // `be_candidate`.
                if self.be_route[input].is_some() {
                    continue;
                }
                let Some((next, forwarded, rewrite)) = self.be_candidate(input) else {
                    continue;
                };
                if usize::from(next) != out {
                    continue;
                }
                self.be_q[input].pop_front();
                if rewrite {
                    // Gateway: the continuation word is consumed here, never
                    // forwarded — its queue slot frees a second upstream
                    // credit.
                    self.be_q[input].pop_front();
                    result.be_dequeues.push(input as PortIdx);
                }
                self.out_credits[out] -= 1;
                if !forwarded.is_tail() {
                    self.be_owner[out] = Some(input);
                    self.be_route[input] = Some(out as PortIdx);
                }
                self.rr[out] = (input + 1) % self.n_ports;
                result.be_dequeues.push(input as PortIdx);
                result.emissions.push(Emission {
                    port: out as PortIdx,
                    word: forwarded,
                });
                break;
            }
        }
    }

    /// Phase 2: register the word arriving on input `port` at `cycle`.
    pub fn absorb(&mut self, port: PortIdx, word: LinkWord, cycle: u64) {
        let input = port as usize;
        match word.class() {
            WordClass::Guaranteed => {
                let (out, fwd) = if let Some(held) = self.gt_hold[input].take() {
                    // Gateway rewrite: the word behind the held exhausted
                    // header is its continuation — install the next segment
                    // and re-emit the header one whole slot later than a
                    // plain hop (the held cycle plus an alignment pad), one
                    // word shorter. Aligning the rewrite to a slot boundary
                    // keeps downstream slot occupancy whole-slot, so the
                    // allocator reserves exactly one slot per link instead
                    // of a base + spill pair. A continuation naming no
                    // port, or a port this router does not have, marks a
                    // misrouted packet (e.g. payload misread as a segment):
                    // drop and count it, like any other orphan.
                    let rewrite = Self::rewrite_header(held, word)
                        .filter(|&(out, _)| usize::from(out) < self.n_ports);
                    let Some((out, rewritten)) = rewrite else {
                        self.gt_pad[input] = 0;
                        self.gt_orphans += 1;
                        return;
                    };
                    self.gt_pad[input] = SLOT_WORDS - 1;
                    if !rewritten.is_tail() {
                        self.gt_route[input] = Some(out);
                    }
                    (out, rewritten)
                } else if word.is_header() {
                    match Path::peek_encoded(word.word()) {
                        Some(out) if usize::from(out) < self.n_ports => {
                            let shifted = word.with_word(Path::shift_header(word.word()));
                            self.gt_pad[input] = 0;
                            if !word.is_tail() {
                                self.gt_route[input] = Some(out);
                            }
                            (out, shifted)
                        }
                        Some(_) => {
                            // A (corrupted) path naming a port this router
                            // does not have: misrouted, drop and count. Any
                            // continuation words follow via the orphan path
                            // below.
                            self.gt_pad[input] = 0;
                            self.gt_orphans += 1;
                            return;
                        }
                        None if !word.is_tail() => {
                            // Path exhausted with more words behind: this
                            // router is the route's gateway — hold for the
                            // continuation word.
                            self.gt_hold[input] = Some(word);
                            return;
                        }
                        None => {
                            // Single-word packet exhausted at a router:
                            // misrouted.
                            self.gt_orphans += 1;
                            return;
                        }
                    }
                } else {
                    let Some(out) = self.gt_route[input] else {
                        self.gt_orphans += 1;
                        return;
                    };
                    if word.is_tail() {
                        self.gt_route[input] = None;
                    }
                    (out, word)
                };
                let due = cycle + SLOT_WORDS + self.gt_pad[input];
                if word.is_tail() {
                    self.gt_pad[input] = 0;
                }
                // Padded (rewritten-here) and unpadded worms converging on
                // one output can be absorbed out of due order; restore the
                // calendar's due order with a bounded backward bubble (the
                // skew is at most the alignment pad).
                let cal = &mut self.gt_cal[out as usize];
                cal.push_back(GtEvent { due, word: fwd })
                    .expect("GT calendar bounded by ports x two slots of lifetime");
                let mut i = cal.len() - 1;
                while i > 0 {
                    let prev = cal.get(i - 1).expect("index in bounds").due;
                    if prev <= due {
                        break;
                    }
                    let moved = *cal.get(i - 1).expect("index in bounds");
                    *cal.get_mut(i).expect("index in bounds") = moved;
                    i -= 1;
                }
                *cal.get_mut(i).expect("index in bounds") = GtEvent { due, word: fwd };
                self.gt_mask |= 1 << out;
            }
            WordClass::BestEffort => {
                if self.be_q[input].push_back(word).is_err() {
                    self.be_overflows += 1;
                }
            }
        }
    }
}

impl crate::persist::Persist for Router {
    fn persist(&mut self, p: &mut dyn crate::persist::PersistVisit) {
        self.persist_walk(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::PacketHeader;

    fn header_word(path: &[PortIdx], qid: u8) -> u32 {
        PacketHeader {
            path: Path::new(path).unwrap(),
            qid,
            credits: 0,
            flush: false,
        }
        .pack()
    }

    fn be_header(path: &[PortIdx], tail: bool) -> LinkWord {
        if tail {
            LinkWord::header_only(header_word(path, 0), WordClass::BestEffort)
        } else {
            LinkWord::header(header_word(path, 0), WordClass::BestEffort)
        }
    }

    fn gt_header(path: &[PortIdx], tail: bool) -> LinkWord {
        if tail {
            LinkWord::header_only(header_word(path, 0), WordClass::Guaranteed)
        } else {
            LinkWord::header(header_word(path, 0), WordClass::Guaranteed)
        }
    }

    fn fresh(n_ports: usize) -> Router {
        let mut r = Router::new(0, n_ports, DEFAULT_BE_QUEUE_WORDS);
        for p in 0..n_ports {
            r.set_out_credits(p as PortIdx, DEFAULT_BE_QUEUE_WORDS as u32);
        }
        r
    }

    #[test]
    fn gt_word_forwarded_after_one_slot() {
        let mut r = fresh(5);
        r.absorb(0, gt_header(&[2, 4], true), 9);
        for c in 10..12 {
            assert!(r.emit(c).emissions.is_empty(), "early at {c}");
        }
        let out = r.emit(12).emissions;
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].port, 2);
        // Path was shifted: next hop is now 4.
        assert_eq!(Path::peek_encoded(out[0].word.word()), Some(4));
    }

    #[test]
    fn gt_worm_follows_header() {
        let mut r = fresh(5);
        r.absorb(1, gt_header(&[3, 4], false), 0);
        r.absorb(1, LinkWord::payload(7, WordClass::Guaranteed, false), 1);
        r.absorb(1, LinkWord::payload(8, WordClass::Guaranteed, true), 2);
        let e3 = r.emit(3).emissions;
        let e4 = r.emit(4).emissions;
        let e5 = r.emit(5).emissions;
        assert_eq!(e3[0].port, 3);
        assert_eq!(e4[0].word.word(), 7);
        assert_eq!(e5[0].word.word(), 8);
        assert!(e5[0].word.is_tail());
        assert_eq!(r.gt_conflicts(), 0);
    }

    #[test]
    fn gt_contention_detected_and_counted() {
        let mut r = fresh(5);
        // Two GT headers from different inputs, same cycle, same output 4.
        r.absorb(0, gt_header(&[4], true), 0);
        r.absorb(1, gt_header(&[4], true), 0);
        let out = r.emit(3).emissions;
        assert_eq!(out.len(), 1, "only one word can leave");
        assert_eq!(r.gt_conflicts(), 1);
    }

    #[test]
    fn gt_orphan_payload_counted() {
        let mut r = fresh(5);
        r.absorb(0, LinkWord::payload(1, WordClass::Guaranteed, true), 0);
        assert_eq!(r.gt_orphans(), 1);
        assert!(r.emit(3).emissions.is_empty());
    }

    #[test]
    fn be_single_word_packet_forwarded() {
        let mut r = fresh(5);
        r.absorb(0, be_header(&[2, 4], true), 0);
        let out = r.emit(1).emissions;
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].port, 2);
        assert!(out[0].word.is_tail());
        assert_eq!(Path::peek_encoded(out[0].word.word()), Some(4));
    }

    #[test]
    fn be_worm_holds_output_until_tail() {
        let mut r = fresh(5);
        r.absorb(0, be_header(&[2, 4], false), 0);
        r.absorb(0, LinkWord::payload(11, WordClass::BestEffort, false), 1);
        r.absorb(0, LinkWord::payload(12, WordClass::BestEffort, true), 2);
        // A competing worm from input 1 to the same output waits.
        r.absorb(1, be_header(&[2, 4], true), 0);
        let w1 = r.emit(1).emissions;
        assert_eq!(w1.len(), 1);
        assert!(w1[0].word.is_header());
        let w2 = r.emit(2).emissions;
        assert_eq!(w2[0].word.word(), 11);
        let w3 = r.emit(3).emissions;
        assert_eq!(w3[0].word.word(), 12);
        assert!(w3[0].word.is_tail());
        // Now the competitor gets through.
        let w4 = r.emit(4).emissions;
        assert_eq!(w4.len(), 1);
        assert!(w4[0].word.is_header());
    }

    #[test]
    fn be_round_robin_alternates() {
        let mut r = fresh(5);
        // Single-word packets from inputs 0 and 1, all to output 3.
        for c in 0..4 {
            r.absorb(0, be_header(&[3, 4], true), c);
            r.absorb(1, be_header(&[3, 4], true), c);
        }
        let mut winners = Vec::new();
        for c in 5..13 {
            if let Some(&input) = r.emit(c).be_dequeues.first() {
                winners.push(input);
            }
        }
        assert_eq!(winners.len(), 8);
        // Strict alternation thanks to round-robin arbitration.
        for pair in winners.windows(2) {
            assert_ne!(pair[0], pair[1], "round robin must alternate: {winners:?}");
        }
    }

    #[test]
    fn be_blocked_without_credits() {
        let mut r = fresh(5);
        r.set_out_credits(2, 0);
        r.absorb(0, be_header(&[2, 4], true), 0);
        assert!(r.emit(1).emissions.is_empty());
        r.add_out_credit(2);
        assert_eq!(r.emit(2).emissions.len(), 1);
    }

    #[test]
    fn be_overflow_counted_not_crashed() {
        let mut r = Router::new(0, 5, 2);
        r.absorb(0, LinkWord::payload(0, WordClass::BestEffort, false), 0);
        r.absorb(0, LinkWord::payload(1, WordClass::BestEffort, false), 0);
        r.absorb(0, LinkWord::payload(2, WordClass::BestEffort, false), 0);
        assert_eq!(r.be_overflows(), 1);
        assert_eq!(r.be_queued(0), 2);
    }

    #[test]
    fn gt_beats_be_for_the_output() {
        let mut r = fresh(5);
        // BE worm ready at cycle 1; GT word due exactly at cycle 3.
        r.absorb(0, be_header(&[2, 4], false), 0);
        r.absorb(0, LinkWord::payload(1, WordClass::BestEffort, false), 1);
        r.absorb(0, LinkWord::payload(2, WordClass::BestEffort, true), 2);
        r.absorb(1, gt_header(&[2, 4], true), 0);
        let e1 = r.emit(1).emissions; // BE header goes (GT not due yet)
        assert_eq!(e1[0].word.class(), WordClass::BestEffort);
        let e2 = r.emit(2).emissions; // BE payload
        assert_eq!(e2[0].word.class(), WordClass::BestEffort);
        let e3 = r.emit(3).emissions; // GT due: wins over BE tail
        assert_eq!(e3.len(), 1);
        assert_eq!(e3[0].word.class(), WordClass::Guaranteed);
        let e4 = r.emit(4).emissions; // BE resumes
        assert_eq!(e4[0].word.class(), WordClass::BestEffort);
        assert!(e4[0].word.is_tail());
    }

    #[test]
    fn emit_reports_dequeues_for_credit_return() {
        let mut r = fresh(5);
        r.absorb(3, be_header(&[1, 4], true), 0);
        let res = r.emit(1);
        assert_eq!(res.be_dequeues, vec![3]);
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_panics() {
        let _ = Router::new(0, 0, 8);
    }

    #[test]
    fn gt_ready_mask_tracks_calendar() {
        let mut r = fresh(5);
        assert_eq!(r.gt_mask, 0, "idle router advertises no ready output");
        r.absorb(0, gt_header(&[2], true), 0);
        assert_eq!(r.gt_mask, 1 << 2, "scheduled emission marks its output");
        let out = r.emit(3).emissions;
        assert_eq!(out.len(), 1);
        assert_eq!(r.gt_mask, 0, "drained calendar clears the bit");
    }

    fn exhausted_header(qid: u8, class: WordClass) -> LinkWord {
        LinkWord::header(header_word(&[], qid), class)
    }

    fn continuation(path: &[PortIdx], class: WordClass, tail: bool) -> LinkWord {
        LinkWord::payload(Path::new(path).unwrap().encode(), class, tail)
    }

    #[test]
    fn gt_gateway_rewrites_header_from_continuation() {
        let mut r = fresh(5);
        // Header exhausted here; continuation names segment [2, 4]; one
        // payload word follows.
        r.absorb(0, exhausted_header(3, WordClass::Guaranteed), 0);
        assert!(!r.idle(), "held header keeps the router non-idle");
        r.absorb(0, continuation(&[2, 4], WordClass::Guaranteed, false), 1);
        r.absorb(0, LinkWord::payload(77, WordClass::Guaranteed, true), 2);
        // Rewrite aligned to the slot grid: the header leaves at 2 x
        // SLOT_WORDS = 6, one whole slot later than a plain hop (due 3);
        // the payload follows contiguously.
        for c in 3..6 {
            assert!(r.emit(c).emissions.is_empty(), "nothing due at {c}");
        }
        let e6 = r.emit(6).emissions;
        assert_eq!(e6.len(), 1);
        assert_eq!(e6[0].port, 2);
        assert!(e6[0].word.is_header());
        // Upper header bits (qid) survived; path shifted past the rewritten
        // first hop.
        assert_eq!(PacketHeader::unpack(e6[0].word.word()).qid, 3);
        assert_eq!(Path::peek_encoded(e6[0].word.word()), Some(4));
        let e7 = r.emit(7).emissions;
        assert_eq!(e7[0].word.word(), 77);
        assert!(e7[0].word.is_tail());
        assert_eq!(r.gt_orphans(), 0);
        assert_eq!(r.gt_conflicts(), 0);
    }

    #[test]
    fn gt_gateway_credit_only_packet() {
        // Header + tail continuation and nothing else: the rewritten header
        // leaves as a single-word packet.
        let mut r = fresh(5);
        r.absorb(1, exhausted_header(7, WordClass::Guaranteed), 0);
        r.absorb(1, continuation(&[3], WordClass::Guaranteed, true), 1);
        assert!(r.emit(4).emissions.is_empty(), "aligned past the plain due");
        let out = r.emit(6).emissions;
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].port, 3);
        assert!(out[0].word.is_header() && out[0].word.is_tail());
        assert!(r.idle());
    }

    #[test]
    fn gt_exhausted_single_word_header_is_orphan() {
        let mut r = fresh(5);
        r.absorb(
            0,
            LinkWord::header_only(header_word(&[], 0), WordClass::Guaranteed),
            0,
        );
        assert_eq!(r.gt_orphans(), 1);
        assert!(r.idle());
    }

    #[test]
    fn gt_empty_continuation_is_orphan() {
        let mut r = fresh(5);
        r.absorb(0, exhausted_header(0, WordClass::Guaranteed), 0);
        r.absorb(0, continuation(&[], WordClass::Guaranteed, true), 1);
        assert_eq!(r.gt_orphans(), 1);
        assert!(r.emit(4).emissions.is_empty());
    }

    #[test]
    fn gt_continuation_naming_a_missing_port_is_orphan_not_panic() {
        // A misrouted multi-word packet: the word behind the exhausted
        // header is payload whose low bits decode to port 6 on a 5-port
        // router. It must be dropped and counted, not crash the calendar.
        let mut r = fresh(5);
        r.absorb(0, exhausted_header(0, WordClass::Guaranteed), 0);
        r.absorb(0, LinkWord::payload(6, WordClass::Guaranteed, true), 1);
        assert_eq!(r.gt_orphans(), 1);
        assert!(r.emit(4).emissions.is_empty());
        assert!(r.idle());
    }

    #[test]
    fn be_gateway_rewrites_and_returns_both_credits() {
        let mut r = fresh(5);
        r.absorb(0, exhausted_header(5, WordClass::BestEffort), 0);
        // Continuation not yet queued: the header must wait, not block.
        assert!(r.emit(1).emissions.is_empty());
        r.absorb(0, continuation(&[1, 4], WordClass::BestEffort, false), 1);
        r.absorb(0, LinkWord::payload(9, WordClass::BestEffort, true), 2);
        let res = r.emit(2);
        assert_eq!(res.emissions.len(), 1);
        assert_eq!(res.emissions[0].port, 1);
        assert!(res.emissions[0].word.is_header());
        assert_eq!(PacketHeader::unpack(res.emissions[0].word.word()).qid, 5);
        assert_eq!(Path::peek_encoded(res.emissions[0].word.word()), Some(4));
        // Two queue slots freed (header + consumed continuation) → two
        // upstream credits.
        assert_eq!(res.be_dequeues, vec![0, 0]);
        // The worm continues to the claimed output.
        let res = r.emit(3);
        assert_eq!(res.emissions[0].word.word(), 9);
        assert!(res.emissions[0].word.is_tail());
        assert_eq!(res.be_dequeues, vec![0]);
    }

    #[test]
    fn be_gateway_tail_continuation_single_word_out() {
        let mut r = fresh(5);
        r.absorb(0, exhausted_header(2, WordClass::BestEffort), 0);
        r.absorb(0, continuation(&[3], WordClass::BestEffort, true), 1);
        let res = r.emit(2);
        assert_eq!(res.emissions.len(), 1);
        assert!(res.emissions[0].word.is_tail());
        assert_eq!(res.be_dequeues, vec![0, 0]);
        assert!(r.idle());
    }

    #[test]
    fn blocked_worm_stays_ready_until_tail_leaves() {
        // A worm claims output 2, then its input runs dry mid-worm; the
        // output must still be visited when the next word arrives.
        let mut r = fresh(5);
        r.absorb(0, be_header(&[2, 4], false), 0);
        assert_eq!(r.emit(1).emissions.len(), 1, "header forwarded");
        assert!(r.emit(2).emissions.is_empty(), "input dry: nothing to emit");
        r.absorb(0, LinkWord::payload(9, WordClass::BestEffort, true), 2);
        let out = r.emit(3).emissions;
        assert_eq!(out.len(), 1);
        assert!(out[0].word.is_tail());
    }
}

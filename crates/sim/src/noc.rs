//! The assembled network: routers wired per a [`Topology`], plus the NI
//! attachment handles through which the `aethereal-ni` crate injects and
//! ejects words.
//!
//! [`Noc::tick`] advances one 500 MHz network cycle in two phases:
//!
//! 1. **emit** — every router output and every NI staging register places at
//!    most one word on its outgoing wire, based on state from the previous
//!    cycle;
//! 2. **absorb** — every router input and NI inbox registers the word on its
//!    incoming wire; BE dequeues from phase 1 return link-level credits to
//!    the upstream producers.
//!
//! This two-phase discipline makes every cycle race-free regardless of
//! iteration order, which in turn makes the GT slot alignment arithmetic
//! (slot `s` on hop `h` ⇒ slot `s+h` on hop `h+1`) exact.

use crate::engine::{Clocked, Engine};
use crate::link::{LinkId, LinkState};
use crate::path::PortIdx;
use crate::ring::Ring;
use crate::router::{EmitResult, Router, DEFAULT_BE_QUEUE_WORDS};
use crate::shard::{NocShard, Partition};
use crate::stats::{LinkStats, NocStats};
use crate::topology::{Endpoint, NiId, RouterId, Topology};
use crate::word::{LinkWord, WordClass, SLOT_WORDS};

/// Construction parameters for a [`Noc`].
#[derive(Debug, Clone, Copy)]
pub struct NocConfig {
    /// BE input-queue depth per router port, in words. Must be ≥ 2 when
    /// any BE traffic rides multi-segment routes: a gateway rewrite needs
    /// the exhausted header *and* its continuation word queued together,
    /// and a 1-word queue can never admit the continuation (the header's
    /// credit only returns once the rewrite happens).
    pub be_queue_words: usize,
    /// Capacity of the NI-side inbox (safety bound on how far an NI may lag
    /// in draining; generous because NIs sink at line rate).
    pub ni_inbox_words: usize,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            be_queue_words: DEFAULT_BE_QUEUE_WORDS,
            ni_inbox_words: 4096,
        }
    }
}

/// The NI side of an attachment link: one outgoing staging register (the NI
/// controls the exact cycle each word enters the network — GT slot alignment
/// depends on it) and an incoming inbox.
#[derive(Debug, Clone)]
pub struct NiLink {
    outgoing: Option<LinkWord>,
    incoming: Ring<LinkWord>,
    credits: u32,
}

impl NiLink {
    fn new(initial_credits: u32, inbox_cap: usize) -> Self {
        NiLink {
            outgoing: None,
            incoming: Ring::with_capacity(inbox_cap),
            credits: initial_credits,
        }
    }

    /// Stages `word` for injection this cycle.
    ///
    /// BE words consume one link-level credit (the router's input-queue
    /// space); check [`NiLink::be_credits`] first. GT words need no credits —
    /// routers never buffer them.
    ///
    /// # Panics
    ///
    /// Panics if a word is already staged this cycle (the link carries one
    /// word per cycle) or if a BE word is sent without credits.
    pub fn send(&mut self, word: LinkWord) {
        assert!(
            self.outgoing.is_none(),
            "NI link already carries a word this cycle"
        );
        if word.class() == WordClass::BestEffort {
            assert!(self.credits > 0, "BE injection without link-level credit");
            self.credits -= 1;
        }
        self.outgoing = Some(word);
    }

    /// Whether a word is already staged this cycle.
    pub fn is_busy(&self) -> bool {
        self.outgoing.is_some()
    }

    /// Link-level BE credits available toward the router input queue.
    pub fn be_credits(&self) -> u32 {
        self.credits
    }

    /// Takes the next received word, if any.
    pub fn recv(&mut self) -> Option<LinkWord> {
        self.incoming.pop_front()
    }

    /// Peeks at the next received word.
    pub fn peek(&self) -> Option<&LinkWord> {
        self.incoming.front()
    }

    /// Number of received words waiting.
    pub fn pending(&self) -> usize {
        self.incoming.len()
    }
}

/// The assembled network-on-chip.
#[derive(Debug, Clone)]
pub struct Noc {
    routers: Vec<Router>,
    links: Vec<LinkState>,
    /// `out_link[router][port] = LinkId` of the directed link leaving there.
    out_link: Vec<Vec<Option<LinkId>>>,
    /// `in_src[router][port] = Endpoint` feeding that input.
    in_src: Vec<Vec<Option<Endpoint>>>,
    /// `ni_out_link[ni] = LinkId` of the NI → router link.
    ni_out_link: Vec<LinkId>,
    ni_links: Vec<NiLink>,
    /// Shard-boundary attachments: router ports whose physical peer lives
    /// in another shard's `Noc` (see [`crate::shard`]).
    boundaries: Vec<BoundaryPort>,
    /// `boundary_at[router][port] = boundary id` for boundary ports.
    boundary_at: Vec<Vec<Option<usize>>>,
    /// Boundary ids whose outbound side was written this cycle (words or
    /// credits) — the dirty list the shard runner drains between the global
    /// emit and absorb phases, so wires with no traffic cost zero exchange
    /// work.
    dirty_out: Vec<usize>,
    /// Boundary ids with delivered inbound traffic awaiting this cycle's
    /// absorb — the ingress mirror of `dirty_out`: absorb registers exactly
    /// these instead of scanning every boundary.
    dirty_in: Vec<usize>,
    /// Fused exchange handle (see [`Noc::attach_exchange`]): when present,
    /// boundary emissions and credits go straight into the shared arena's
    /// cut-wire rings during emit, and absorb consumes due slots straight
    /// out of them — the dirty lists and boundary registers stay unused.
    exchange: Option<crate::shard::ExchangeAttachment>,
    /// Construction parameters, kept so [`Noc::split`] can rebuild
    /// identically-configured shard networks.
    config: NocConfig,
    cycle: u64,
    stats: NocStats,
    /// Reusable per-tick scratch (cleared every cycle): keeps the
    /// steady-state tick free of allocations.
    scratch: TickScratch,
    /// Link-id bitset of the wires carrying a word this cycle: emit sets
    /// the bit of every wire it loads, absorb walks the set bits in
    /// ascending id order — the order of a full link scan — and clears
    /// them, so the set is empty at every cycle boundary.
    wire_bits: Vec<u64>,
    /// Router bitset of the routers holding a queued BE word or a GT
    /// calendar entry ([`Router::may_emit`]) — the only routers whose emit
    /// can produce anything. Set by every absorb into a router, cleared by
    /// an emit that leaves the router with neither. Derived state: the
    /// persist walk rebuilds it (and `wire_bits`) from the restored
    /// routers and wires.
    busy_routers: Vec<u64>,
    /// Armed fault-injection machinery (see [`crate::fault`]): when
    /// present, the emit phase filters each router's emissions and BE
    /// credit returns through the active fault windows. `None` (the
    /// default) keeps the hot path untouched.
    fault: Option<crate::fault::FaultState>,
}

/// One shard-boundary attachment: the local half of a cut inter-router
/// link. The port's emissions land in `out_word` (instead of a wire), and
/// BE dequeues at the port's input earn credits for the remote producer in
/// `out_credits`; the shard runner exchanges both between the global emit
/// and absorb phases and delivers the remote side's words and credits into
/// `in_word` / `in_credits`, which the absorb phase registers exactly as a
/// wired link would.
#[derive(Debug, Clone)]
struct BoundaryPort {
    router: usize,
    port: PortIdx,
    out_word: Option<LinkWord>,
    out_credits: u32,
    /// Whether this boundary is on the [`Noc::dirty_out`] list.
    out_dirty: bool,
    in_word: Option<LinkWord>,
    in_credits: u32,
    /// Whether this boundary is on the [`Noc::dirty_in`] list.
    in_dirty: bool,
    /// Ingress tally: words absorbed from the remote side. Stands in for
    /// the cut directed link's [`LinkStats`] entry.
    stats: LinkStats,
}

/// Reusable buffers for one tick.
#[derive(Debug, Clone, Default)]
struct TickScratch {
    emit: EmitResult,
    /// `(router, input)` pairs owed one link-level BE credit this cycle.
    credit_returns: Vec<(usize, PortIdx)>,
}

impl Noc {
    /// Builds the network for `topology` with default parameters.
    pub fn new(topology: &Topology) -> Self {
        Self::with_config(topology, NocConfig::default())
    }

    /// Builds the network for `topology` with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `be_queue_words < 2`: a gateway rewrite needs the
    /// exhausted header and its continuation word queued together, so a
    /// 1-word BE queue would deadlock two-level BE traffic silently.
    pub fn with_config(topology: &Topology, config: NocConfig) -> Self {
        assert!(
            config.be_queue_words >= 2,
            "BE queues need at least 2 words (gateway rewrites queue the \
             header and its continuation together)"
        );
        let nr = topology.router_count();
        let mut routers: Vec<Router> = (0..nr)
            .map(|r| Router::new(r, topology.ports_of(r), config.be_queue_words))
            .collect();
        let mut links = Vec::new();
        let mut out_link: Vec<Vec<Option<LinkId>>> =
            (0..nr).map(|r| vec![None; topology.ports_of(r)]).collect();
        let mut in_src: Vec<Vec<Option<Endpoint>>> =
            (0..nr).map(|r| vec![None; topology.ports_of(r)]).collect();
        let add = |links: &mut Vec<LinkState>, src: Endpoint, dst: Endpoint| -> LinkId {
            let id = links.len();
            links.push(LinkState::new(src, dst));
            id
        };
        for e in topology.edges() {
            let a = Endpoint::Router {
                router: e.a,
                port: e.port_a,
            };
            let b = Endpoint::Router {
                router: e.b,
                port: e.port_b,
            };
            let ab = add(&mut links, a, b);
            let ba = add(&mut links, b, a);
            out_link[e.a][e.port_a as usize] = Some(ab);
            out_link[e.b][e.port_b as usize] = Some(ba);
            in_src[e.b][e.port_b as usize] = Some(a);
            in_src[e.a][e.port_a as usize] = Some(b);
        }
        let mut ni_out_link = Vec::new();
        let mut ni_links = Vec::new();
        for ni in 0..topology.ni_count() {
            let (r, p) = topology.ni_attachment(ni).expect("ni in range");
            let nie = Endpoint::Ni { ni };
            let re = Endpoint::Router { router: r, port: p };
            let to_router = add(&mut links, nie, re);
            let from_router = add(&mut links, re, nie);
            let _ = from_router;
            ni_out_link.push(to_router);
            out_link[r][p as usize] = Some(from_router);
            in_src[r][p as usize] = Some(nie);
            ni_links.push(NiLink::new(
                config.be_queue_words as u32,
                config.ni_inbox_words,
            ));
        }
        // Initialize per-output BE credit budgets: the downstream input
        // queue capacity (router inputs), or effectively unbounded for
        // router → NI links (the NI sinks at line rate; destination-buffer
        // space is governed by the NI's end-to-end credits).
        for (r, ports) in out_link.iter().enumerate() {
            for (p, l) in ports.iter().enumerate() {
                if let Some(l) = l {
                    let credits = match links[*l].dst {
                        Endpoint::Router { .. } => config.be_queue_words as u32,
                        Endpoint::Ni { .. } => u32::MAX / 2,
                    };
                    routers[r].set_out_credits(p as PortIdx, credits);
                }
            }
        }
        let n_links = links.len();
        let boundary_at = (0..nr).map(|r| vec![None; topology.ports_of(r)]).collect();
        Noc {
            routers,
            links,
            out_link,
            in_src,
            ni_out_link,
            ni_links,
            boundaries: Vec::new(),
            boundary_at,
            dirty_out: Vec::new(),
            dirty_in: Vec::new(),
            exchange: None,
            config,
            cycle: 0,
            stats: NocStats::new(n_links),
            scratch: TickScratch::default(),
            wire_bits: vec![0; n_links.div_ceil(64)],
            busy_routers: vec![0; nr.div_ceil(64)],
            fault: None,
        }
    }

    /// Current cycle (500 MHz network clock).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Current TDM slot index for a table of `stu_slots` slots.
    pub fn slot(&self, stu_slots: u64) -> u64 {
        (self.cycle / SLOT_WORDS) % stu_slots
    }

    /// Whether the current cycle is a slot boundary.
    pub fn at_slot_boundary(&self) -> bool {
        self.cycle.is_multiple_of(SLOT_WORDS)
    }

    /// Number of NIs attached.
    pub fn ni_count(&self) -> usize {
        self.ni_links.len()
    }

    /// The attachment handle of NI `ni`.
    ///
    /// # Panics
    ///
    /// Panics if `ni` is out of range.
    pub fn ni_link_mut(&mut self, ni: NiId) -> &mut NiLink {
        &mut self.ni_links[ni]
    }

    /// Immutable access to the attachment handle of NI `ni`.
    pub fn ni_link(&self, ni: NiId) -> &NiLink {
        &self.ni_links[ni]
    }

    /// The routers (for inspection).
    pub fn routers(&self) -> &[Router] {
        &self.routers
    }

    /// All link states (for inspection).
    pub fn links(&self) -> &[LinkState] {
        &self.links
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Total GT contention violations across all routers (invariant: zero).
    pub fn gt_conflicts(&self) -> u64 {
        self.routers.iter().map(Router::gt_conflicts).sum()
    }

    /// Total BE credit-discipline violations across all routers (invariant:
    /// zero).
    pub fn be_overflows(&self) -> u64 {
        self.routers.iter().map(Router::be_overflows).sum()
    }

    // ---- Fault injection (see `crate::fault`) ------------------------

    /// Arms `plan` on this network. From the first cycle of any event
    /// window onward, the emit phase filters emissions and BE credit
    /// returns through the plan; outside the windows the armed hooks cost
    /// one comparison per cycle. Arming (even an empty plan) marks the
    /// network faulted, which conservatively declines all fast-forward
    /// certification until [`Noc::disarm_faults`].
    ///
    /// # Panics
    ///
    /// Panics if a plan is already armed (disarm first — replacing a live
    /// plan silently would break deterministic replay).
    pub fn arm_faults(&mut self, plan: &crate::fault::FaultPlan) {
        assert!(self.fault.is_none(), "a fault plan is already armed");
        self.fault = Some(crate::fault::FaultState::arm(plan));
    }

    /// Arms only the events of `plan` whose router is in the **sorted**
    /// `owned` list — how a sharded system distributes one plan across its
    /// regions so every event runs on exactly one shard, with the same
    /// per-event generator seeds as a monolithic arm.
    ///
    /// # Panics
    ///
    /// Panics if a plan is already armed.
    pub fn arm_faults_for(&mut self, plan: &crate::fault::FaultPlan, owned: &[RouterId]) {
        assert!(self.fault.is_none(), "a fault plan is already armed");
        self.fault = Some(crate::fault::FaultState::arm_for(plan, owned));
    }

    /// Drops the armed fault machinery (scheduled windows, generator
    /// state and health counters), returning the network to the unarmed
    /// hot path and re-enabling fast-forward eligibility.
    pub fn disarm_faults(&mut self) {
        self.fault = None;
    }

    /// Whether fault machinery is armed — `true` from [`Noc::arm_faults`]
    /// until [`Noc::disarm_faults`], even when every window has expired
    /// (the conservative fast-forward gate).
    pub fn fault_armed(&self) -> bool {
        self.fault.is_some()
    }

    /// Builds the detection report: the armed events' per-link health
    /// counters (links that dropped, corrupted or starved traffic, plus
    /// still-open windows) and the routers' GT watchdog counters.
    /// Credit-loss events are remapped to the upstream producer's directed
    /// link — the link a healer must route around. NI-side drop counts are
    /// folded in by the system layer (`aethereal-cfg`).
    pub fn fault_report(&self) -> crate::fault::FaultReport {
        let mut report = crate::fault::FaultReport {
            gt_conflicts: self.gt_conflicts(),
            gt_orphans: self.routers.iter().map(Router::gt_orphans).sum(),
            ..Default::default()
        };
        if let Some(f) = &self.fault {
            f.report_into(self.cycle, &mut report, |gr, p| {
                let lr = self.routers.iter().position(|r| r.id() == gr)?;
                match self.in_src[lr].get(p as usize).copied().flatten() {
                    // `in_src` endpoints are shard-local; report global ids.
                    Some(Endpoint::Router { router, port }) => {
                        Some((self.routers[router].id(), port))
                    }
                    _ => None,
                }
            });
        }
        report
    }

    // ---- Shard boundaries (see `crate::shard`) -----------------------

    /// Declares the unwired `(router, port)` as a shard-boundary
    /// attachment: the local half of an inter-router link that was cut by a
    /// [`Partition`]. Returns the boundary id surfaced by
    /// [`Noc::take_dirty_boundary`] and used with
    /// [`Noc::put_boundary_in`].
    ///
    /// The port's output is granted the standard inter-router BE credit
    /// budget (the remote input queue's capacity).
    ///
    /// # Panics
    ///
    /// Panics if the port is already wired or already a boundary.
    pub fn open_boundary(&mut self, router: RouterId, port: PortIdx) -> usize {
        let p = port as usize;
        assert!(
            self.out_link[router][p].is_none() && self.in_src[router][p].is_none(),
            "router {router} port {port} is wired inside this shard"
        );
        assert!(
            self.boundary_at[router][p].is_none(),
            "router {router} port {port} is already a boundary"
        );
        let id = self.boundaries.len();
        self.boundaries.push(BoundaryPort {
            router,
            port,
            out_word: None,
            out_credits: 0,
            out_dirty: false,
            in_word: None,
            in_credits: 0,
            in_dirty: false,
            stats: LinkStats::default(),
        });
        self.boundary_at[router][p] = Some(id);
        self.routers[router].set_out_credits(port, self.config.be_queue_words as u32);
        id
    }

    /// Number of boundary attachments.
    pub fn boundary_count(&self) -> usize {
        self.boundaries.len()
    }

    /// Installs a fused exchange handle: from here on, boundary emissions
    /// and earned credits are written **in place** into the shared arena's
    /// cut-wire rings during [`Clocked::emit`], and [`Clocked::absorb`]
    /// consumes each inbound ring's slot at exactly its due cycle — no
    /// dirty lists, no register copies, no per-event runner bridge (see
    /// [`crate::shard::ShardRunner::fuse`]). Cloning a fused network
    /// clones the handle, which **shares** the arena — split the clone's
    /// attachment off with a fresh [`crate::shard::ShardRunner`] before
    /// driving both.
    ///
    /// # Panics
    ///
    /// Panics if the attachment's boundary maps do not cover exactly this
    /// network's boundaries, or if a handle is already installed.
    pub fn attach_exchange(&mut self, exchange: crate::shard::ExchangeAttachment) {
        assert!(self.exchange.is_none(), "exchange already attached");
        assert_eq!(
            exchange.boundaries(),
            self.boundaries.len(),
            "attachment must map every boundary"
        );
        self.exchange = Some(exchange);
    }

    /// Whether a fused exchange handle is installed.
    pub fn exchange_attached(&self) -> bool {
        self.exchange.is_some()
    }

    /// Takes one dirty boundary's outbound traffic — the boundary id plus
    /// the word and credits its emit phase produced this cycle — or `None`
    /// when every cut wire is quiet. The shard runner drains this between
    /// the global emit and absorb phases; boundaries with no traffic never
    /// appear, so quiet wires cost nothing.
    pub fn take_dirty_boundary(&mut self) -> Option<(usize, Option<LinkWord>, u32)> {
        let b = self.dirty_out.pop()?;
        let bp = &mut self.boundaries[b];
        debug_assert!(bp.out_dirty);
        bp.out_dirty = false;
        Some((b, bp.out_word.take(), std::mem::take(&mut bp.out_credits)))
    }

    /// Marks boundary `b` dirty (first outbound write this cycle appends it
    /// to the drain list).
    #[inline]
    fn mark_boundary_dirty(boundaries: &mut [BoundaryPort], dirty_out: &mut Vec<usize>, b: usize) {
        if !boundaries[b].out_dirty {
            boundaries[b].out_dirty = true;
            dirty_out.push(b);
        }
    }

    /// Delivers the remote side's outbound traffic for this cycle; the
    /// absorb phase registers the word into the router input and returns
    /// the credits to the local output, exactly as a wired link would.
    ///
    /// # Panics
    ///
    /// Panics if a word is already pending (one word per link per cycle).
    pub fn put_boundary_in(&mut self, b: usize, word: Option<LinkWord>, credits: u32) {
        let bp = &mut self.boundaries[b];
        if word.is_some() {
            assert!(bp.in_word.is_none(), "boundary {b} already carries a word");
            bp.in_word = word;
        }
        bp.in_credits += credits;
        if !bp.in_dirty && (bp.in_word.is_some() || bp.in_credits > 0) {
            bp.in_dirty = true;
            self.dirty_in.push(b);
        }
    }

    /// Ingress tally of boundary `b`: the words absorbed from the remote
    /// side, standing in for the cut directed link's per-link counters.
    pub fn boundary_stats(&self, b: usize) -> &LinkStats {
        &self.boundaries[b].stats
    }

    /// Splits a **drained** network into per-shard networks along the cut
    /// computed by `partition`, moving every router, NI handle and per-link
    /// counter into its shard so that lockstep execution of the shards
    /// (with boundary words exchanged between the global emit and absorb
    /// phases — see [`crate::shard::ShardRunner`]) is bit-identical to
    /// ticking `self`.
    ///
    /// `topology` must be the topology this network was built from.
    ///
    /// # Panics
    ///
    /// Panics if the network still carries state on wires, in router queues
    /// or in NI staging/inboxes (`quiescent` is the precondition that makes
    /// the cut exact), if the topology does not match, or if the partition
    /// is invalid for the topology.
    pub fn split(mut self, topology: &Topology, partition: &Partition) -> Vec<NocShard> {
        assert_eq!(
            topology.router_count(),
            self.routers.len(),
            "topology does not match this network"
        );
        assert_eq!(topology.ni_count(), self.ni_links.len());
        assert!(
            self.boundaries.is_empty(),
            "cannot split an already-sharded network"
        );
        assert!(
            self.drained(),
            "split requires a drained network (wires, routers, GT calendars \
             and NI handles empty)"
        );
        partition
            .validate(topology)
            .expect("partition fits topology");
        let pieces = partition.pieces(topology);
        let cuts = partition.cut_edges(topology);
        let global_edges = topology.edges().len();
        let mut out = Vec::with_capacity(pieces.len());
        for (s, piece) in pieces.into_iter().enumerate() {
            let mut noc = Noc::with_config(&piece.topology, self.config);
            // Open boundaries in global cut order; record for each the
            // global id of its *ingress* directed link (the one whose words
            // this side absorbs) so stats merge back exactly.
            let mut boundary_links = Vec::new();
            let mut cut_ids = Vec::new();
            for (k, c) in cuts.iter().enumerate() {
                if c.a_shard == s {
                    let lr = piece
                        .routers
                        .binary_search(&c.a_router)
                        .expect("router in shard");
                    noc.open_boundary(lr, c.a_port);
                    // Global link ids: edge k' wires a→b as 2k', b→a as
                    // 2k'+1; the a-side ingests the b→a direction.
                    boundary_links.push(2 * c.edge + 1);
                    cut_ids.push(k);
                }
                if c.b_shard == s {
                    let lr = piece
                        .routers
                        .binary_search(&c.b_router)
                        .expect("router in shard");
                    noc.open_boundary(lr, c.b_port);
                    boundary_links.push(2 * c.edge);
                    cut_ids.push(k);
                }
            }
            // Move the live state: routers (with their counters and credit
            // registers) and NI attachment handles.
            for (lr, &gr) in piece.routers.iter().enumerate() {
                noc.routers[lr] = std::mem::replace(&mut self.routers[gr], Router::new(gr, 1, 1));
            }
            for (ln, &gn) in piece.nis.iter().enumerate() {
                noc.ni_links[ln] = std::mem::replace(&mut self.ni_links[gn], NiLink::new(0, 1));
            }
            noc.cycle = self.cycle;
            // Armed fault events move to the shard owning their router
            // (ids are global, so no remapping; dynamic state — generator
            // positions, health counters — travels unchanged). Every shard
            // stays *armed* even with no local events, so the conservative
            // fast-forward gate holds across the whole fleet.
            if let Some(f) = self.fault.as_mut() {
                noc.fault = Some(f.extract_owned(&piece.routers));
            }
            // Per-link counters follow their links; scalars stay on shard 0
            // (merging sums shards, so pre-split history must not double).
            let local_edges = piece.topology.edges().len();
            let mut link_map = vec![0; noc.links.len()];
            for (j, &ge) in piece.edge_map.iter().enumerate() {
                link_map[2 * j] = 2 * ge;
                link_map[2 * j + 1] = 2 * ge + 1;
            }
            for (ln, &gn) in piece.nis.iter().enumerate() {
                link_map[2 * local_edges + 2 * ln] = 2 * global_edges + 2 * gn;
                link_map[2 * local_edges + 2 * ln + 1] = 2 * global_edges + 2 * gn + 1;
            }
            for (l, &g) in link_map.iter().enumerate() {
                noc.stats.links[l] = self.stats.links[g];
            }
            for (b, &g) in boundary_links.iter().enumerate() {
                noc.boundaries[b].stats = self.stats.links[g];
            }
            noc.stats.cycles = self.cycle;
            noc.stats.gt_conflicts = noc.gt_conflicts();
            if s == 0 {
                noc.stats.delivered = self.stats.delivered;
                noc.stats.be_overflows = self.stats.be_overflows;
            }
            out.push(NocShard {
                noc,
                routers: piece.routers,
                nis: piece.nis,
                link_map,
                boundary_links,
                cuts: cut_ids,
            });
        }
        out
    }

    /// Whether nothing at all is in flight: all wires idle, all routers
    /// fully drained (GT calendars included), no staged NI word, no
    /// undrained NI inbox and no pending boundary traffic. This is the
    /// strict precondition of [`Noc::split`]; the [`Clocked::quiescent`]
    /// notion is weaker — it also holds while scheduled GT emissions wait
    /// for their due cycle.
    pub fn drained(&self) -> bool {
        self.routers.iter().all(Router::idle) && self.calendar_dormant()
    }

    /// The non-router part of quiescence: wires, NI handles and boundaries
    /// all empty, routers holding at most scheduled GT emissions.
    fn calendar_dormant(&self) -> bool {
        self.routers.iter().all(Router::calendar_idle)
            && self.wire_bits.iter().all(|&w| w == 0)
            && self
                .ni_links
                .iter()
                .all(|h| h.outgoing.is_none() && h.incoming.is_empty())
            && self.boundaries.iter().all(|b| {
                b.out_word.is_none()
                    && b.in_word.is_none()
                    && b.out_credits == 0
                    && b.in_credits == 0
            })
    }

    /// Whether no best-effort traffic exists anywhere in the network: all
    /// router BE queues, worms and arbitration state idle, and no BE-class
    /// word on any wire, NI handle or boundary register. This is part of
    /// the fast-forward eligibility gate (see [`crate::ff`]): BE progress
    /// depends on round-robin arbitration history and credit dynamics,
    /// which the analytical GT model does not extrapolate.
    pub fn be_quiet(&self) -> bool {
        let be = |w: &LinkWord| w.class() == WordClass::BestEffort;
        self.routers.iter().all(Router::be_quiet)
            && !self.links.iter().any(|l| l.wire.as_ref().is_some_and(be))
            && !self
                .ni_links
                .iter()
                .any(|h| h.outgoing.as_ref().is_some_and(be) || h.incoming.iter().any(be))
            && !self
                .boundaries
                .iter()
                .any(|b| b.out_word.as_ref().is_some_and(be) || b.in_word.as_ref().is_some_and(be))
    }

    /// Whether every shard boundary is completely silent: no pending word,
    /// credit or dirty mark in either direction. A region may only
    /// fast-forward while its cut wires are silent — the probe ticks the
    /// region alone, so any boundary exchange during the probed window
    /// would be lost.
    pub fn boundaries_silent(&self) -> bool {
        self.dirty_out.is_empty()
            && self.dirty_in.is_empty()
            && self.boundaries.iter().all(|b| {
                b.out_word.is_none()
                    && b.in_word.is_none()
                    && b.out_credits == 0
                    && b.in_credits == 0
            })
            && self.exchange.as_ref().is_none_or(|x| x.silent())
    }

    /// Follows a source route hop by hop from NI `ni`'s attachment point
    /// and reports whether it ever leaves this (possibly sharded) network
    /// through a boundary port or an unwired port. `hops` is the full hop
    /// sequence across all route segments
    /// ([`Route::iter_hops`](crate::Route::iter_hops)).
    ///
    /// Used by the shard runner's fast-forward gate: a region may only
    /// extrapolate GT streams whose circuits are entirely local.
    pub fn route_crosses_boundary(&self, ni: NiId, hops: impl Iterator<Item = PortIdx>) -> bool {
        let mut ep = self.links[self.ni_out_link[ni]].dst;
        for p in hops {
            let r = match ep {
                Endpoint::Router { router, .. } => router,
                // Delivered to an NI; trailing hops can't leave anymore.
                Endpoint::Ni { .. } => return false,
            };
            let p = p as usize;
            if self.boundary_at[r][p].is_some() {
                return true;
            }
            match self.out_link[r][p] {
                Some(l) => ep = self.links[l].dst,
                // An unwired port swallows the word here; conservatively
                // treat it as leaving the region.
                None => return true,
            }
        }
        false
    }

    /// Walks the complete wire-visible state of the network through a
    /// fast-forward visitor (see [`crate::ff`]): the cycle counter, all
    /// statistics counters, every wire, NI handle, boundary register and
    /// router.
    pub fn ff_visit(&mut self, v: &mut dyn crate::ff::FfVisit) {
        use crate::ff::{visit_opt_word, visit_word};
        // Armed faults make the future non-extrapolable (drops are not
        // periodic, and flaky links are probabilistic): poison any
        // fast-forward certification outright, independent of the
        // system-level eligibility gates.
        if self.fault.is_some() {
            v.reject();
        }
        v.counter(&mut self.cycle);
        v.counter(&mut self.stats.cycles);
        v.counter(&mut self.stats.gt_conflicts);
        v.counter(&mut self.stats.be_overflows);
        for d in &mut self.stats.delivered {
            v.counter(d);
        }
        for ls in &mut self.stats.links {
            for w in &mut ls.words {
                v.counter(w);
            }
            for h in &mut ls.headers {
                v.counter(h);
            }
        }
        for l in &mut self.links {
            visit_opt_word(&mut l.wire, v);
        }
        for h in &mut self.ni_links {
            visit_opt_word(&mut h.outgoing, v);
            v.exact(h.incoming.len() as u64);
            for i in 0..h.incoming.len() {
                visit_word(h.incoming.get_mut(i).expect("index in range"), v);
            }
            v.exact(u64::from(h.credits));
        }
        v.exact(self.dirty_out.len() as u64);
        v.exact(self.dirty_in.len() as u64);
        // Arena ring occupancy on this region's wires: any in-flight cut
        // word or credit rejects a fast-forward attempt (the jump would
        // skip its due cycle).
        if let Some(x) = &self.exchange {
            v.exact(x.occupied() as u64);
        }
        for b in &mut self.boundaries {
            visit_opt_word(&mut b.out_word, v);
            v.exact(u64::from(b.out_credits));
            v.exact(u64::from(b.out_dirty));
            visit_opt_word(&mut b.in_word, v);
            v.exact(u64::from(b.in_credits));
            v.exact(u64::from(b.in_dirty));
            for w in &mut b.stats.words {
                v.counter(w);
            }
            for hd in &mut b.stats.headers {
                v.counter(hd);
            }
        }
        for r in &mut self.routers {
            r.ff_visit(v);
        }
    }

    /// Walks the network's complete dynamic state through the persistence
    /// visitor (see [`crate::persist`]): the snapshot twin of
    /// [`Noc::ff_visit`]. Everything the fast-forward walk classifies is
    /// persisted — cycle, statistics, wires, NI handles, boundary
    /// registers, dirty lists, routers — while structural wiring (the
    /// topology maps, the config) and the fused exchange handle stay
    /// outside: a snapshot restores onto an identically-built network, and
    /// in-flight arena state travels with the shard runner's walk, not the
    /// region's. The per-tick scratch is transient (cleared at the top of
    /// every emit) and carries nothing between cycles.
    fn persist_walk(&mut self, p: &mut dyn crate::persist::PersistVisit) {
        use crate::persist::{
            persist_bool, persist_opt_word, persist_ring, persist_u32, persist_usize_list,
            persist_word, Persist,
        };
        p.item(&mut self.cycle);
        p.item(&mut self.stats.cycles);
        p.item(&mut self.stats.gt_conflicts);
        p.item(&mut self.stats.be_overflows);
        for d in &mut self.stats.delivered {
            p.item(d);
        }
        for ls in &mut self.stats.links {
            for w in &mut ls.words {
                p.item(w);
            }
            for h in &mut ls.headers {
                p.item(h);
            }
        }
        for l in &mut self.links {
            persist_opt_word(&mut l.wire, p);
        }
        let empty = LinkWord::header_only(0, WordClass::BestEffort);
        for h in &mut self.ni_links {
            persist_opt_word(&mut h.outgoing, p);
            persist_ring(&mut h.incoming, empty, p, |w, p| persist_word(w, p));
            persist_u32(&mut h.credits, p);
        }
        persist_usize_list(&mut self.dirty_out, p);
        persist_usize_list(&mut self.dirty_in, p);
        for b in &mut self.boundaries {
            persist_opt_word(&mut b.out_word, p);
            persist_u32(&mut b.out_credits, p);
            persist_bool(&mut b.out_dirty, p);
            persist_opt_word(&mut b.in_word, p);
            persist_u32(&mut b.in_credits, p);
            persist_bool(&mut b.in_dirty, p);
            for w in &mut b.stats.words {
                p.item(w);
            }
            for hd in &mut b.stats.headers {
                p.item(hd);
            }
        }
        for r in &mut self.routers {
            r.persist(p);
        }
        // Armed fault machinery: dynamic remainder only (generator
        // positions, health counters, activation cache). The schedule is
        // structural — a snapshot of a faulted run restores onto a network
        // armed with the identical plan, exactly as wiring restores onto
        // an identically-built topology; unarmed snapshots carry nothing
        // extra, so pre-fault golden snapshots stay byte-stable.
        if let Some(f) = &mut self.fault {
            f.persist(p);
        }
        // Derived activity sets: re-derived from the walked wires and
        // routers, never serialized.
        self.rebuild_activity();
    }

    /// Recomputes the derived activity bitsets (`wire_bits`,
    /// `busy_routers`) from the wires and routers they summarize.
    fn rebuild_activity(&mut self) {
        self.wire_bits.fill(0);
        for (l, link) in self.links.iter().enumerate() {
            if link.wire.is_some() {
                set_bit(&mut self.wire_bits, l);
            }
        }
        self.busy_routers.fill(0);
        for (r, router) in self.routers.iter().enumerate() {
            if router.may_emit() {
                set_bit(&mut self.busy_routers, r);
            }
        }
    }

    /// The earliest due cycle across every router's GT calendar (`u64::MAX`
    /// when all calendars are empty). Only busy routers can hold calendar
    /// entries, so only they are consulted.
    pub fn next_gt_due(&self) -> u64 {
        let mut due = u64::MAX;
        for (k, &word) in self.busy_routers.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let r = k * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                due = due.min(self.routers[r].next_gt_due());
            }
        }
        due
    }

    /// Advances the network by one cycle (emit, then absorb — a thin
    /// wrapper over [`Engine::tick`]).
    pub fn tick(&mut self) {
        Engine::tick(self);
    }

    /// Runs `n` cycles through [`Engine::run`] (with its quiescent fast
    /// path).
    pub fn run(&mut self, n: u64) {
        Engine::run(self, n);
    }
}

impl crate::persist::Persist for Noc {
    fn persist(&mut self, p: &mut dyn crate::persist::PersistVisit) {
        self.persist_walk(p);
    }
}

impl Clocked for Noc {
    fn now(&self) -> u64 {
        self.cycle
    }

    /// Phase 1: every router output and every NI staging register places at
    /// most one word on its outgoing wire, based on previous-cycle state.
    fn emit(&mut self) {
        let cycle = self.cycle;
        debug_assert!(self.scratch.credit_returns.is_empty());
        // Armed faults: one comparison per cycle decides whether any event
        // window is open; only then does the per-router filter run. The
        // filter acts here — before emissions reach a wire, boundary
        // register or arena ring — so a fault on a cut wire is identical
        // monolithic or sharded: the exchange simply never sees the word.
        let fault_active = match &mut self.fault {
            Some(f) => f.begin_cycle(cycle),
            None => false,
        };
        // Fused: boundary traffic goes straight into the arena rings (the
        // handle is moved out for the phase so boundary state stays
        // borrowable).
        let exchange = self.exchange.take();
        // Busy routers, in ascending id order. An idle router's emit
        // produces nothing (no queued BE word, no calendar entry) and the
        // fault filter leaves an empty result empty, so skipping it is
        // exact; the order among the routers that do emit is unchanged.
        for k in 0..self.busy_routers.len() {
            let mut rest = self.busy_routers[k];
            while rest != 0 {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                let r = k * 64 + bit as usize;
                self.emit_router(r, cycle, fault_active, exchange.as_ref());
                if !self.routers[r].may_emit() {
                    self.busy_routers[k] &= !(1 << bit);
                }
            }
        }
        self.exchange = exchange;
        // NIs.
        for (ni, handle) in self.ni_links.iter_mut().enumerate() {
            if let Some(word) = handle.outgoing.take() {
                let l = self.ni_out_link[ni];
                debug_assert!(self.links[l].wire.is_none());
                self.links[l].wire = Some(word);
                set_bit(&mut self.wire_bits, l);
            }
        }
    }

    /// Phase 2: every router input and NI inbox registers the word on its
    /// incoming wire; BE dequeues from phase 1 return link-level credits to
    /// the upstream producers.
    fn absorb(&mut self) {
        let cycle = self.cycle;
        // Boundary ingress: words and credits the shard runner delivered
        // from remote shards register exactly like wired-link arrivals
        // (only boundaries that actually received something are visited).
        while let Some(b) = self.dirty_in.pop() {
            let bp = &mut self.boundaries[b];
            debug_assert!(bp.in_dirty);
            bp.in_dirty = false;
            let (r, p) = (bp.router, bp.port);
            if let Some(word) = bp.in_word.take() {
                bp.stats.record(word.class(), word.is_header());
                self.absorb_into_router(r, p, word, cycle);
            }
            for _ in 0..std::mem::take(&mut self.boundaries[b].in_credits) {
                self.routers[r].add_out_credit(p);
            }
        }
        // Fused boundary ingress: consume each inbound ring's slot at
        // exactly this cycle, straight out of the arena. Per-output GT
        // calendars make the iteration order across boundaries immaterial,
        // like the wired-link loop below.
        let exchange = self.exchange.take();
        if let Some(x) = &exchange {
            for b in 0..self.boundaries.len() {
                if let Some((word, credits)) = x.in_ring(b).take_due(cycle) {
                    let bp = &mut self.boundaries[b];
                    let (r, p) = (bp.router, bp.port);
                    if let Some(word) = word {
                        bp.stats.record(word.class(), word.is_header());
                        self.absorb_into_router(r, p, word, cycle);
                    }
                    for _ in 0..credits {
                        self.routers[r].add_out_credit(p);
                    }
                }
            }
        }
        self.exchange = exchange;
        // Loaded wires only, in ascending link id order (the set bits of
        // `wire_bits`, cleared as they are consumed).
        for k in 0..self.wire_bits.len() {
            let mut rest = std::mem::take(&mut self.wire_bits[k]);
            while rest != 0 {
                let l = k * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let word = self.links[l]
                    .wire
                    .take()
                    .expect("wire bit set for a loaded wire");
                self.stats.links[l].record(word.class(), word.is_header());
                match self.links[l].dst {
                    Endpoint::Router { router, port } => {
                        self.absorb_into_router(router, port, word, cycle);
                    }
                    Endpoint::Ni { ni } => {
                        let handle = &mut self.ni_links[ni];
                        if handle.incoming.push_back(word).is_ok() {
                            self.stats.delivered[word.class().index()] += 1;
                        } else {
                            // NI failed to drain: account as BE overflow;
                            // the invariant tests require this to stay zero.
                            self.stats.be_overflows += 1;
                        }
                    }
                }
            }
        }
        // Return link-level credits earned by this cycle's BE dequeues.
        for (r, input) in self.scratch.credit_returns.drain(..) {
            match self.in_src[r][input as usize] {
                Some(Endpoint::Router { router, port }) => {
                    self.routers[router].add_out_credit(port);
                }
                Some(Endpoint::Ni { ni }) => {
                    self.ni_links[ni].credits += 1;
                }
                None => {}
            }
        }
        self.cycle += 1;
        self.stats.cycles = self.cycle;
    }

    /// The network is quiescent when a tick can change only time-derived
    /// counters: all wires idle, no staged NI word, no undrained NI inbox,
    /// no pending boundary traffic, and every router either fully drained
    /// or holding only *scheduled GT emissions whose due cycle has not
    /// arrived*. Pending calendars do not block quiescence — they are pure
    /// timetables, untouched by ticks before their due cycle — but the
    /// earliest due cycle caps [`Clocked::next_event`], so no driver ever
    /// skips a due emission (the calendar-sleep path).
    fn quiescent(&self) -> bool {
        self.calendar_dormant() && self.next_gt_due() > self.cycle
    }

    /// The earliest scheduled GT due cycle — the only spontaneous future
    /// event a quiescent network can have (`u64::MAX` when fully drained).
    fn next_event(&self, now: u64) -> u64 {
        let _ = now;
        self.next_gt_due()
    }

    fn skip(&mut self, cycles: u64) {
        debug_assert!(
            self.next_gt_due() >= self.cycle.saturating_add(cycles),
            "skip past a scheduled GT emission"
        );
        self.cycle += cycles;
        self.stats.cycles = self.cycle;
    }
}

/// Sets bit `i` of a bitset stored as 64-bit words.
#[inline]
fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

impl Noc {
    /// Emit of router `r`: its words go onto wires (or boundary registers
    /// or arena rings), its BE dequeues earn upstream credits, and the GT
    /// conflicts it records are added to [`NocStats::gt_conflicts`].
    fn emit_router(
        &mut self,
        r: usize,
        cycle: u64,
        fault_active: bool,
        exchange: Option<&crate::shard::ExchangeAttachment>,
    ) {
        let mut result = std::mem::take(&mut self.scratch.emit);
        let conflicts_before = self.routers[r].gt_conflicts();
        self.routers[r].emit_into(cycle, &mut result);
        self.stats.gt_conflicts += self.routers[r].gt_conflicts() - conflicts_before;
        if fault_active {
            let rid = self.routers[r].id();
            if let Some(f) = &mut self.fault {
                f.filter(rid, cycle, &mut result);
            }
        }
        for e in &result.emissions {
            if let Some(l) = self.out_link[r][e.port as usize] {
                debug_assert!(self.links[l].wire.is_none());
                self.links[l].wire = Some(e.word);
                set_bit(&mut self.wire_bits, l);
            } else if let Some(b) = self.boundary_at[r][e.port as usize] {
                if let Some(x) = exchange {
                    x.out_ring(b).send_word(cycle, e.word);
                } else {
                    debug_assert!(self.boundaries[b].out_word.is_none());
                    self.boundaries[b].out_word = Some(e.word);
                    Self::mark_boundary_dirty(&mut self.boundaries, &mut self.dirty_out, b);
                }
            }
        }
        for &input in &result.be_dequeues {
            // A dequeue at a boundary input earns its credit for the
            // *remote* producer: export it now so the exchange delivers it
            // into the same cycle's absorb, exactly like the wired-link
            // return.
            if let Some(b) = self.boundary_at[r][input as usize] {
                if let Some(x) = exchange {
                    x.out_ring(b).send_credits(cycle, 1);
                } else {
                    self.boundaries[b].out_credits += 1;
                    Self::mark_boundary_dirty(&mut self.boundaries, &mut self.dirty_out, b);
                }
            } else {
                self.scratch.credit_returns.push((r, input));
            }
        }
        self.scratch.emit = result;
    }

    /// Registers `word` at input `port` of router `r`, marking the router
    /// busy: an absorbed word is queued BE data or a calendar entry, or —
    /// a held gateway header or a dropped orphan — leaves the router idle,
    /// which its next emit detects and clears.
    fn absorb_into_router(&mut self, r: usize, port: PortIdx, word: LinkWord, cycle: u64) {
        self.routers[r].absorb(port, word, cycle);
        set_bit(&mut self.busy_routers, r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::PacketHeader;
    use crate::path::Path;
    use crate::topology::Topology;

    fn be_packet(path: Path, qid: u8, payload: &[u32]) -> Vec<LinkWord> {
        let h = PacketHeader {
            path,
            qid,
            credits: 0,
            flush: false,
        };
        let mut words = Vec::new();
        if payload.is_empty() {
            words.push(LinkWord::header_only(h.pack(), WordClass::BestEffort));
        } else {
            words.push(LinkWord::header(h.pack(), WordClass::BestEffort));
            for (i, &w) in payload.iter().enumerate() {
                words.push(LinkWord::payload(
                    w,
                    WordClass::BestEffort,
                    i + 1 == payload.len(),
                ));
            }
        }
        words
    }

    fn gt_packet(path: Path, qid: u8, payload: &[u32]) -> Vec<LinkWord> {
        let h = PacketHeader {
            path,
            qid,
            credits: 0,
            flush: false,
        };
        let mut words = Vec::new();
        if payload.is_empty() {
            words.push(LinkWord::header_only(h.pack(), WordClass::Guaranteed));
        } else {
            words.push(LinkWord::header(h.pack(), WordClass::Guaranteed));
            for (i, &w) in payload.iter().enumerate() {
                words.push(LinkWord::payload(
                    w,
                    WordClass::Guaranteed,
                    i + 1 == payload.len(),
                ));
            }
        }
        words
    }

    /// Drives a word sequence into an NI link, one word per cycle.
    fn drive(noc: &mut Noc, ni: NiId, words: &[LinkWord]) {
        for w in words {
            noc.ni_link_mut(ni).send(*w);
            noc.tick();
        }
    }

    fn drain(noc: &mut Noc, ni: NiId) -> Vec<LinkWord> {
        let mut out = Vec::new();
        while let Some(w) = noc.ni_link_mut(ni).recv() {
            out.push(w);
        }
        out
    }

    #[test]
    fn be_packet_delivered_across_mesh() {
        let topo = Topology::mesh(2, 2, 1);
        let mut noc = Noc::new(&topo);
        let path = topo.route(0, 3).unwrap();
        drive(&mut noc, 0, &be_packet(path, 5, &[10, 20, 30]));
        noc.run(20);
        let got = drain(&mut noc, 3);
        assert_eq!(got.len(), 4);
        assert!(got[0].is_header());
        assert_eq!(PacketHeader::unpack(got[0].word()).qid, 5);
        // Path fully consumed on arrival.
        assert!(PacketHeader::unpack(got[0].word()).path.is_empty());
        assert_eq!(got[1].word(), 10);
        assert_eq!(got[3].word(), 30);
        assert!(got[3].is_tail());
        assert_eq!(noc.gt_conflicts(), 0);
        assert_eq!(noc.be_overflows(), 0);
    }

    #[test]
    fn gt_packet_latency_is_one_slot_per_hop() {
        let topo = Topology::mesh(2, 2, 1);
        let mut noc = Noc::new(&topo);
        let path = topo.route(0, 3).unwrap(); // 3 hops incl. ejection
        let words = gt_packet(path, 1, &[100, 200]);
        // Inject exactly at a slot boundary (cycle 0).
        assert!(noc.at_slot_boundary());
        let start = noc.cycle();
        drive(&mut noc, 0, &words);
        // Header crosses 3 routers at 3 cycles each: arrives end of cycle
        // start + 3*3 = 9 → visible after tick 9 completes.
        let mut arrival = None;
        for _ in 0..40 {
            noc.tick();
            if noc.ni_link(3).pending() > 0 && arrival.is_none() {
                arrival = Some(noc.cycle() - 1);
            }
        }
        assert_eq!(arrival, Some(start + 3 * SLOT_WORDS));
        let got = drain(&mut noc, 3);
        assert_eq!(got.len(), 3);
        assert_eq!(got[1].word(), 100);
        assert_eq!(noc.gt_conflicts(), 0);
    }

    #[test]
    fn two_gt_flows_on_disjoint_slots_no_conflict() {
        // NI0 → NI3 and NI1 → NI3 share router 1→3 link (south). Offset
        // injections by one slot so their slots never collide.
        let topo = Topology::mesh(2, 2, 1);
        let mut noc = Noc::new(&topo);
        let p03 = topo.route(0, 3).unwrap();
        let p13 = topo.route(1, 3).unwrap();
        // NI0's flit needs one hop to reach router 1, so on the shared
        // router1→router3 link an NI0 flit injected in slot s lands in slot
        // s+2 while an NI1 flit injected in slot s' lands in slot s'+1.
        // Leaving one idle slot between the injections (s' = s+2) keeps the
        // shared link slots disjoint.
        for round in 0..8u64 {
            let w0 = gt_packet(p03.clone(), 0, &[round as u32, 1]);
            drive(&mut noc, 0, &w0);
            noc.run(3); // skip one slot
            let w1 = gt_packet(p13.clone(), 1, &[round as u32, 2]);
            drive(&mut noc, 1, &w1);
        }
        noc.run(40);
        assert_eq!(noc.gt_conflicts(), 0);
        let got = drain(&mut noc, 3);
        // 16 packets × 3 words.
        assert_eq!(got.len(), 48);
    }

    #[test]
    fn gt_conflict_detected_when_slots_collide() {
        // Both NIs inject at the same slot toward the same shared link.
        // NI0→NI3 path: E,S,eject — hits router1 south at slot s+1.
        // NI1→NI3 path: S,eject — hits router1 south at slot s+1 too if
        // NI1 injects at slot s. Guaranteed collision.
        let topo = Topology::mesh(2, 2, 1);
        let mut noc = Noc::new(&topo);
        let p03 = topo.route(0, 3).unwrap();
        let p13 = topo.route(1, 3).unwrap();
        // NI1 must inject one slot later so both headers arrive at router 1
        // in the same cycle window... simpler: inject both at cycle 0; the
        // NI0 header reaches router 1 at cycle 3, the NI1 header at cycle 0.
        // Delay NI1 by one slot to collide at router 1.
        let h0 = gt_packet(p03, 0, &[]);
        let h1 = gt_packet(p13, 1, &[]);
        noc.ni_link_mut(0).send(h0[0]);
        noc.tick();
        noc.run(2); // complete slot 0
        noc.ni_link_mut(1).send(h1[0]);
        noc.tick();
        noc.run(30);
        assert!(
            noc.gt_conflicts() > 0,
            "engineered slot collision must be detected"
        );
    }

    /// Injects one colliding pair: NI0's single-word GT header (qid 0)
    /// reaches router 1 over the router 0 → 1 link in the same cycle as
    /// NI1's (qid 1) arrives over its NI link, and both are due on router
    /// 1's south output one slot later. Starts and ends on a slot boundary.
    fn inject_collision(noc: &mut Noc, topo: &Topology, mut tick: impl FnMut(&mut Noc)) {
        let h0 = gt_packet(topo.route(0, 3).unwrap(), 0, &[]);
        let h1 = gt_packet(topo.route(1, 3).unwrap(), 1, &[]);
        noc.ni_link_mut(0).send(h0[0]);
        for _ in 0..SLOT_WORDS {
            tick(noc);
        }
        noc.ni_link_mut(1).send(h1[0]);
        for _ in 0..SLOT_WORDS {
            tick(noc);
        }
    }

    #[test]
    fn colliding_gt_flows_keep_the_lower_link_id_winner() {
        // Absorb registers wires in ascending link id order and the calendar
        // keeps arrival order, so the word on the inter-router link (edge
        // links precede NI links) takes the output and the NI1 word is the
        // one counted and dropped.
        let topo = Topology::mesh(2, 2, 1);
        let mut noc = Noc::new(&topo);
        inject_collision(&mut noc, &topo, Noc::tick);
        noc.run(30);
        let got = drain(&mut noc, 3);
        assert_eq!(got.len(), 1, "one word survives the collision");
        assert_eq!(PacketHeader::unpack(got[0].word()).qid, 0);
        assert_eq!(noc.gt_conflicts(), 1);
        assert_eq!(noc.stats().gt_conflicts, 1);
    }

    #[test]
    fn stats_gt_conflicts_match_router_sum_across_cycles_split_and_restore() {
        use crate::persist::{Persist, StateLoader, StateSaver};
        use crate::shard::{wires_of, ShardRunner};
        let checked = |noc: &mut Noc| {
            noc.tick();
            assert_eq!(noc.stats().gt_conflicts, noc.gt_conflicts());
        };
        let topo = Topology::mesh(2, 2, 1);
        let mut noc = Noc::new(&topo);
        for _ in 0..3 {
            inject_collision(&mut noc, &topo, checked);
        }
        for _ in 0..30 {
            checked(&mut noc);
        }
        assert_eq!(noc.gt_conflicts(), 3);
        drain(&mut noc, 3);
        // Restore onto a fresh network: the counter and the router sum
        // travel together and keep agreeing as collisions continue.
        let mut saver = StateSaver::new();
        noc.persist(&mut saver);
        let mut restored = Noc::new(&topo);
        let mut loader = StateLoader::new(saver.finish().unwrap());
        restored.persist(&mut loader);
        loader.finish().unwrap();
        assert_eq!(restored.stats().gt_conflicts, 3);
        inject_collision(&mut restored, &topo, checked);
        for _ in 0..30 {
            checked(&mut restored);
        }
        assert_eq!(restored.gt_conflicts(), 4);
        // Split: every region starts with its own routers' sum and keeps it
        // while the shard runner drives a collision inside region 0.
        drain(&mut restored, 3);
        let partition = Partition::new(vec![0, 0, 1, 1]).unwrap();
        let mut shards = restored.split(&topo, &partition);
        let mut runner = ShardRunner::new(2, wires_of(&shards), shards[0].noc.cycle());
        runner.fuse(&mut shards);
        let agree = |shards: &[NocShard]| {
            for s in shards {
                assert_eq!(s.noc.stats().gt_conflicts, s.noc.gt_conflicts());
            }
        };
        agree(&shards);
        let h0 = gt_packet(topo.route(0, 3).unwrap(), 0, &[]);
        let h1 = gt_packet(topo.route(1, 3).unwrap(), 1, &[]);
        // Direct NI injection bypasses the activity scheduler: wake first.
        runner.wake(&mut shards, 0);
        shards[0].noc.ni_link_mut(0).send(h0[0]);
        for _ in 0..SLOT_WORDS {
            runner.run(&mut shards, 1);
            agree(&shards);
        }
        runner.wake(&mut shards, 0);
        shards[0].noc.ni_link_mut(1).send(h1[0]);
        for _ in 0..30 {
            runner.run(&mut shards, 1);
            agree(&shards);
        }
        let total: u64 = shards.iter().map(|s| s.noc.stats().gt_conflicts).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn be_credits_replenish() {
        let topo = Topology::mesh(2, 2, 1);
        let mut noc = Noc::new(&topo);
        let init = noc.ni_link(0).be_credits();
        let path = topo.route(0, 3).unwrap();
        drive(&mut noc, 0, &be_packet(path, 0, &[1, 2, 3, 4]));
        noc.run(30);
        assert_eq!(
            noc.ni_link(0).be_credits(),
            init,
            "credits return after drain"
        );
    }

    #[test]
    fn be_backpressure_without_loss() {
        // Two senders saturate one destination link; all words must arrive,
        // none dropped, credits enforce bounded queues.
        let topo = Topology::mesh(2, 2, 1);
        let mut noc = Noc::new(&topo);
        let p03 = topo.route(0, 3).unwrap();
        let p13 = topo.route(1, 3).unwrap();
        let pkt0 = be_packet(p03, 0, &[1, 2, 3, 4, 5, 6, 7]);
        let pkt1 = be_packet(p13, 1, &[8, 9, 10, 11, 12, 13, 14]);
        let mut sent0 = 0usize;
        let mut sent1 = 0usize;
        let n_packets = 6;
        let mut received = Vec::new();
        for _ in 0..800 {
            {
                let link = noc.ni_link_mut(0);
                if sent0 < n_packets * pkt0.len() && !link.is_busy() && link.be_credits() > 0 {
                    link.send(pkt0[sent0 % pkt0.len()]);
                    sent0 += 1;
                }
            }
            {
                let link = noc.ni_link_mut(1);
                if sent1 < n_packets * pkt1.len() && !link.is_busy() && link.be_credits() > 0 {
                    link.send(pkt1[sent1 % pkt1.len()]);
                    sent1 += 1;
                }
            }
            noc.tick();
            received.extend(drain(&mut noc, 3));
        }
        assert_eq!(sent0, n_packets * pkt0.len());
        assert_eq!(sent1, n_packets * pkt1.len());
        assert_eq!(received.len(), sent0 + sent1, "no loss");
        assert_eq!(noc.be_overflows(), 0);
        // Worms arrive unfragmented per class: check header/payload framing.
        let mut expect_header = true;
        for w in &received {
            if expect_header {
                assert!(w.is_header());
            }
            expect_header = w.is_tail();
        }
        assert!(expect_header, "last word closes a packet");
    }

    #[test]
    fn gt_and_be_interleave_on_one_link_and_demux_cleanly() {
        let topo = Topology::mesh(2, 1, 1);
        let mut noc = Noc::new(&topo);
        let path = topo.route(0, 1).unwrap();
        // Start a long BE worm, then inject a GT flit mid-worm.
        let be = be_packet(path.clone(), 2, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let gt = gt_packet(path, 3, &[100, 200]);
        let mut bi = 0;
        let mut gi = 0;
        for c in 0..60u64 {
            let send_gt = (6..9).contains(&c) && gi < gt.len();
            let link = noc.ni_link_mut(0);
            if send_gt && !link.is_busy() {
                link.send(gt[gi]);
                gi += 1;
            } else if bi < be.len() && !link.is_busy() && link.be_credits() > 0 {
                link.send(be[bi]);
                bi += 1;
            }
            noc.tick();
        }
        let got = drain(&mut noc, 1);
        let gt_words: Vec<_> = got
            .iter()
            .filter(|w| w.class() == WordClass::Guaranteed)
            .collect();
        let be_words: Vec<_> = got
            .iter()
            .filter(|w| w.class() == WordClass::BestEffort)
            .collect();
        assert_eq!(gt_words.len(), 3);
        assert_eq!(be_words.len(), 9);
        assert_eq!(gt_words[1].word(), 100);
        assert_eq!(be_words[4].word(), 4);
        assert_eq!(noc.gt_conflicts(), 0);
    }

    #[test]
    fn stats_track_delivery() {
        let topo = Topology::mesh(2, 1, 1);
        let mut noc = Noc::new(&topo);
        let path = topo.route(0, 1).unwrap();
        drive(&mut noc, 0, &be_packet(path, 0, &[1]));
        noc.run(10);
        assert_eq!(noc.stats().delivered[WordClass::BestEffort.index()], 2);
        assert!(noc.stats().cycles > 0);
    }

    #[test]
    #[should_panic(expected = "already carries")]
    fn double_send_in_one_cycle_panics() {
        let topo = Topology::mesh(2, 1, 1);
        let mut noc = Noc::new(&topo);
        let w = LinkWord::header_only(0, WordClass::Guaranteed);
        noc.ni_link_mut(0).send(w);
        noc.ni_link_mut(0).send(w);
    }

    /// Builds the wire form of a packet over a (possibly multi-segment)
    /// route: header with the first segment, one continuation word per
    /// further segment, then payload.
    fn routed_packet(
        route: &crate::Route,
        qid: u8,
        class: WordClass,
        payload: &[u32],
    ) -> Vec<LinkWord> {
        let h = PacketHeader {
            path: route.header_segment().clone(),
            qid,
            credits: 0,
            flush: false,
        };
        let conts: Vec<u32> = route.continuation_words().collect();
        let mut words = Vec::new();
        if conts.is_empty() && payload.is_empty() {
            words.push(LinkWord::header_only(h.pack(), class));
            return words;
        }
        words.push(LinkWord::header(h.pack(), class));
        for (i, &c) in conts.iter().enumerate() {
            words.push(LinkWord::payload(
                c,
                class,
                payload.is_empty() && i + 1 == conts.len(),
            ));
        }
        for (i, &w) in payload.iter().enumerate() {
            words.push(LinkWord::payload(w, class, i + 1 == payload.len()));
        }
        words
    }

    #[test]
    fn be_two_level_route_crosses_8x8_mesh() {
        let topo = Topology::mesh(8, 8, 1);
        let mut noc = Noc::new(&topo);
        // Opposite corners: 15 hops, beyond any single header.
        assert!(topo.route(0, 63).is_err());
        let route = topo.route_any(0, 63).unwrap();
        assert_eq!(route.gateway_count(), 2);
        let init_credits = noc.ni_link(0).be_credits();
        drive(
            &mut noc,
            0,
            &routed_packet(&route, 6, WordClass::BestEffort, &[10, 20, 30]),
        );
        noc.run(120);
        let got = drain(&mut noc, 63);
        // Continuation words were consumed at the gateways: only header +
        // payload arrive, path fully consumed, qid intact.
        assert_eq!(got.len(), 4);
        assert!(got[0].is_header());
        let h = PacketHeader::unpack(got[0].word());
        assert_eq!(h.qid, 6);
        assert!(h.path.is_empty());
        assert_eq!(got[1].word(), 10);
        assert!(got[3].is_tail());
        assert_eq!(noc.be_overflows(), 0);
        assert_eq!(noc.gt_conflicts(), 0);
        // All link-level credits returned (incl. the two gateway-freed ones).
        assert_eq!(noc.ni_link(0).be_credits(), init_credits);
        assert!(Clocked::quiescent(&noc), "nothing left in flight");
    }

    #[test]
    fn gt_two_level_route_latency_adds_one_slot_per_gateway() {
        let topo = Topology::mesh(8, 8, 1);
        let mut noc = Noc::new(&topo);
        let route = topo.route_any(0, 63).unwrap();
        let words = routed_packet(&route, 1, WordClass::Guaranteed, &[100]);
        assert!(noc.at_slot_boundary());
        let start = noc.cycle();
        drive(&mut noc, 0, &words);
        let mut arrival = None;
        for _ in 0..200 {
            noc.tick();
            if noc.ni_link(63).pending() > 0 && arrival.is_none() {
                arrival = Some(noc.cycle() - 1);
            }
        }
        // 15 hops at one slot each, plus one whole (slot-aligned) slot per
        // gateway rewrite.
        assert_eq!(
            arrival,
            Some(start + (15 + route.gateway_count() as u64) * SLOT_WORDS)
        );
        let got = drain(&mut noc, 63);
        assert_eq!(got.len(), 2, "continuations consumed en route");
        assert_eq!(got[1].word(), 100);
        assert_eq!(noc.gt_conflicts(), 0);
        assert_eq!(noc.routers().iter().map(Router::gt_orphans).sum::<u64>(), 0);
    }

    #[test]
    fn two_level_routes_all_corner_pairs_16x16() {
        // Every corner-to-corner pair on a 16x16 mesh (31 hops, 5 segments).
        let topo = Topology::mesh(16, 16, 1);
        let mut noc = Noc::new(&topo);
        for (src, dst) in [(0usize, 255usize), (255, 0), (15, 240), (240, 15)] {
            let route = topo.route_any(src, dst).unwrap();
            assert_eq!(route.total_hops(), 31);
            drive(
                &mut noc,
                src,
                &routed_packet(&route, 3, WordClass::BestEffort, &[src as u32]),
            );
            noc.run(300);
            let got = drain(&mut noc, dst);
            assert_eq!(got.len(), 2, "{src}→{dst}");
            assert_eq!(got[1].word(), src as u32);
        }
        assert_eq!(noc.be_overflows(), 0);
    }

    #[test]
    fn ring_topology_delivers() {
        let topo = Topology::ring(4);
        let mut noc = Noc::new(&topo);
        let path = topo.route(0, 2).unwrap();
        drive(&mut noc, 0, &be_packet(path, 4, &[42]));
        noc.run(30);
        let got = drain(&mut noc, 2);
        assert_eq!(got.len(), 2);
        assert_eq!(PacketHeader::unpack(got[0].word()).qid, 4);
        assert_eq!(got[1].word(), 42);
    }
}

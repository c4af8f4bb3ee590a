//! The traced run: the engine loop replayed from outside the simulator.
//!
//! [`Replay`] puts a [`NocSystem`] back on the engine contract through
//! public calls only, timing one span per phase per cycle (never one per
//! NI), so [`Engine::run`] and [`Engine::run_ff`] drive it exactly as they
//! drive the system itself. Two modes:
//!
//! * **held IPs** — the benchmark holds the IP models ([`Held`]) and ticks
//!   them against their port stacks, then runs every NI's absorb, every
//!   NI's emit and the network's emit as separate phases. This splits a
//!   cycle into the proto, core and sim layers.
//! * **bound IPs** — the IPs stay inside the system, because the system's
//!   own [`FastForwardable::fast_forward`] must walk their state. A cycle
//!   is then one emit span and one absorb span of the whole system.
//!
//! Both modes time the scheduling calls the engine makes (`quiescent`,
//! `next_event`, `skip`, `fast_forward`).

use aethereal_cfg::NocSystem;
use aethereal_ni::kernel::ChannelId;
use aethereal_proto::ip::RawPort;
use aethereal_proto::{MasterIp, RawIp, SlaveIp};
use noc_sim::engine::{ClockDomain, Clocked, ClockedWith};
use noc_sim::ff::{FastForwardable, FfOutcome};
use std::cell::Cell;
use std::time::Instant;

/// One IP model held by the benchmark instead of bound into the system.
pub struct HeldIp<T: ?Sized> {
    /// NI the IP sits on.
    pub ni: usize,
    /// Port whose clock the IP runs on.
    pub port: usize,
    /// That port's clock.
    pub clock: ClockDomain,
    /// Channels of a raw IP (unused for masters and slaves).
    pub channels: Vec<ChannelId>,
    /// The model.
    pub ip: Box<T>,
}

impl<T: ?Sized> HeldIp<T> {
    /// Holds `ip` on `(ni, port)` of `sys`, with raw `channels`.
    pub fn new(
        sys: &NocSystem,
        ni: usize,
        port: usize,
        channels: Vec<ChannelId>,
        ip: Box<T>,
    ) -> Self {
        let clock = ClockDomain::new(sys.nis[ni].kernel.port_clock_div(port));
        HeldIp {
            ni,
            port,
            clock,
            channels,
            ip,
        }
    }
}

/// The IP models of a workload, in the order [`NocSystem`] ticks bound IPs:
/// masters, then slaves, then raw IPs, each in binding order.
#[derive(Default)]
pub struct Held {
    /// Master IPs.
    pub masters: Vec<HeldIp<dyn MasterIp>>,
    /// Slave IPs.
    pub slaves: Vec<HeldIp<dyn SlaveIp>>,
    /// Raw streaming IPs.
    pub raws: Vec<HeldIp<dyn RawIp>>,
}

impl Held {
    /// Binds every held IP into `sys`, in tick order: the untraced run
    /// then simulates exactly what the traced run replays.
    pub fn bind_into(self, sys: &mut NocSystem) {
        for b in self.masters {
            sys.bind_master(b.ni, b.port, b.ip);
        }
        for b in self.slaves {
            sys.bind_slave(b.ni, b.port, b.ip);
        }
        for b in self.raws {
            sys.bind_raw(b.ni, b.port, b.channels, b.ip);
        }
    }

    /// The first raw IP of type `T` at NI `ni`.
    pub fn raw_at<T: 'static>(&self, ni: usize) -> &T {
        self.raws
            .iter()
            .filter(|b| b.ni == ni)
            .find_map(|b| b.ip.as_any().downcast_ref::<T>())
            .expect("a raw IP of this type is held at the NI")
    }

    /// The master IP of handle `idx`, as type `T`.
    pub fn master<T: 'static>(&self, idx: usize) -> &T {
        self.masters[idx]
            .ip
            .as_any()
            .downcast_ref::<T>()
            .expect("master IP type matches")
    }

    fn tick(&mut self, sys: &mut NocSystem, cycle: u64) {
        for b in &mut self.masters {
            if b.clock.ticks_at(cycle) {
                b.ip.tick(sys.nis[b.ni].master_mut(b.port), cycle);
            }
        }
        for b in &mut self.slaves {
            if b.clock.ticks_at(cycle) {
                b.ip.tick(sys.nis[b.ni].slave_mut(b.port), cycle);
            }
        }
        for b in &mut self.raws {
            if b.clock.ticks_at(cycle) {
                let mut port = RawPort {
                    kernel: &mut sys.nis[b.ni].kernel,
                    channels: &b.channels,
                };
                b.ip.tick(&mut port, cycle);
            }
        }
    }

    /// `(clock, idle_until)` of every held IP.
    fn idle(&self, now: u64) -> impl Iterator<Item = (ClockDomain, u64)> + '_ {
        let masters = self
            .masters
            .iter()
            .map(move |b| (b.clock, b.ip.idle_until(now)));
        let slaves = self
            .slaves
            .iter()
            .map(move |b| (b.clock, b.ip.idle_until(now)));
        let raws = self
            .raws
            .iter()
            .map(move |b| (b.clock, b.ip.idle_until(now)));
        masters.chain(slaves).chain(raws)
    }
}

/// Span totals (host nanoseconds) and call counts of a traced run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Spans {
    /// IP model ticks (held mode).
    pub ip_ns: u64,
    /// NI absorb phase: shells and inbox drain (held mode).
    pub ni_absorb_ns: u64,
    /// NI emit phase: slot scheduler and packetizer (held mode).
    pub ni_emit_ns: u64,
    /// Network emit phase (held mode).
    pub noc_emit_ns: u64,
    /// Network absorb phase (held mode).
    pub noc_absorb_ns: u64,
    /// Whole emit + absorb calls, either mode.
    pub tick_ns: u64,
    /// Cycles ticked by the engine loop (outside fast-forward probes).
    pub ticked: u64,
    /// `quiescent` calls and their total time.
    pub quiescent_calls: u64,
    /// Total time of `quiescent` calls.
    pub quiescent_ns: u64,
    /// Cycles covered by `skip`.
    pub skipped: u64,
    /// `fast_forward` calls.
    pub ff_attempts: u64,
    /// Attempts that jumped.
    pub ff_jumps: u64,
    /// Cycles covered arithmetically by jumps.
    pub ff_jumped: u64,
    /// Total time of `fast_forward` calls, probes included.
    pub ff_ns: u64,
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A [`NocSystem`] driven from outside with every layer call timed.
pub struct Replay<'a> {
    sys: &'a mut NocSystem,
    held: Option<&'a mut Held>,
    spans: Spans,
    quiescent_calls: Cell<u64>,
    quiescent_ns: Cell<u64>,
}

impl<'a> Replay<'a> {
    /// Replays `sys` ticking the benchmark-held IPs (`Some`) or the IPs
    /// bound inside it (`None`).
    pub fn new(sys: &'a mut NocSystem, held: Option<&'a mut Held>) -> Self {
        Replay {
            sys,
            held,
            spans: Spans::default(),
            quiescent_calls: Cell::new(0),
            quiescent_ns: Cell::new(0),
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> Spans {
        Spans {
            quiescent_calls: self.quiescent_calls.get(),
            quiescent_ns: self.quiescent_ns.get(),
            ..self.spans.clone()
        }
    }
}

impl Clocked for Replay<'_> {
    fn now(&self) -> u64 {
        self.sys.cycle()
    }

    fn emit(&mut self) {
        let t0 = Instant::now();
        match self.held.as_deref_mut() {
            None => Clocked::emit(&mut *self.sys),
            Some(held) => {
                let cycle = self.sys.cycle();
                held.tick(self.sys, cycle);
                let t1 = Instant::now();
                let NocSystem { noc, nis, .. } = &mut *self.sys;
                for (i, ni) in nis.iter_mut().enumerate() {
                    ClockedWith::absorb(ni, noc.ni_link_mut(i), cycle);
                }
                let t2 = Instant::now();
                for (i, ni) in nis.iter_mut().enumerate() {
                    ClockedWith::emit(ni, noc.ni_link_mut(i), cycle);
                }
                let t3 = Instant::now();
                Clocked::emit(noc);
                self.spans.ip_ns += (t1 - t0).as_nanos() as u64;
                self.spans.ni_absorb_ns += (t2 - t1).as_nanos() as u64;
                self.spans.ni_emit_ns += (t3 - t2).as_nanos() as u64;
                self.spans.noc_emit_ns += ns_since(t3);
            }
        }
        self.spans.tick_ns += ns_since(t0);
        self.spans.ticked += 1;
    }

    fn absorb(&mut self) {
        let t0 = Instant::now();
        if self.held.is_some() {
            Clocked::absorb(&mut self.sys.noc);
            self.spans.noc_absorb_ns += ns_since(t0);
        } else {
            Clocked::absorb(&mut *self.sys);
        }
        self.spans.tick_ns += ns_since(t0);
    }

    /// `NocSystem::quiescent` over the held IPs in held mode.
    fn quiescent(&self) -> bool {
        let t0 = Instant::now();
        let q = match self.held.as_deref() {
            None => Clocked::quiescent(&*self.sys),
            Some(held) => {
                let now = self.sys.cycle();
                held.idle(now).all(|(_, idle)| idle > now)
                    && self
                        .sys
                        .nis
                        .iter()
                        .all(|ni| ClockedWith::dormant_until(ni, now) > now)
                    && Clocked::quiescent(&self.sys.noc)
            }
        };
        self.quiescent_calls.set(self.quiescent_calls.get() + 1);
        self.quiescent_ns
            .set(self.quiescent_ns.get() + ns_since(t0));
        q
    }

    fn skip(&mut self, cycles: u64) {
        if self.held.is_some() {
            let from = self.sys.cycle();
            for ni in &mut self.sys.nis {
                ClockedWith::skip(ni, from, cycles);
            }
            Clocked::skip(&mut self.sys.noc, cycles);
        } else {
            Clocked::skip(&mut *self.sys, cycles);
        }
        self.spans.skipped += cycles;
    }

    /// `NocSystem::next_event` over the held IPs in held mode.
    fn next_event(&self, now: u64) -> u64 {
        let Some(held) = self.held.as_deref() else {
            return Clocked::next_event(&*self.sys, now);
        };
        let mut horizon = Clocked::next_event(&self.sys.noc, now);
        for (clock, idle) in held.idle(now) {
            if idle != u64::MAX {
                horizon = horizon.min(clock.next_edge(idle));
            }
        }
        for ni in &self.sys.nis {
            horizon = horizon.min(ClockedWith::dormant_until(ni, now));
        }
        horizon
    }
}

impl FastForwardable for Replay<'_> {
    /// The system's own fast-forward; held IPs are outside its state walk,
    /// so held mode declines.
    fn fast_forward(&mut self, max: u64) -> FfOutcome {
        if self.held.is_some() {
            return FfOutcome::DECLINED;
        }
        let t0 = Instant::now();
        let out = FastForwardable::fast_forward(&mut *self.sys, max);
        self.spans.ff_ns += ns_since(t0);
        self.spans.ff_attempts += 1;
        if out.jumped > 0 {
            self.spans.ff_jumps += 1;
        }
        self.spans.ff_jumped += out.jumped;
        out
    }
}

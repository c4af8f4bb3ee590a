//! The four named workloads: how each is built, run and observed.
//!
//! Every workload is built through the simulator's public API, warmed up,
//! then measured in fixed-length windows. Each window restarts from the
//! same warm snapshot, so every window simulates the same interval: the
//! simulated statistics of one window are the workload's deterministic
//! figures, and a window that differs from the first is a failed check.

use crate::trace::{Held, HeldIp};
use aethereal_bench::{gt_stream_mesh, stream_mesh, MeshTraffic};
use aethereal_cfg::json::Value;
use aethereal_cfg::runtime::{ChannelEnd, ConfigStats, ConnectionRequest};
use aethereal_cfg::{
    presets, NocSpec, NocSystem, RuntimeConfigurator, ShardedSystem, TopologySpec,
};
use aethereal_ni::kernel::{ChannelId, NiKernelStats};
use aethereal_proto::{
    MemorySlave, StreamSource, TrafficGenerator, TrafficGeneratorConfig, TrafficMix,
};
use aethereal_verify::bounds::worst_case_latency;
use noc_sim::topology::Endpoint;
use noc_sim::{FfStats, NocStats, Partition, Router, Topology};
use std::time::Instant;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Saturating BE column streams on a mesh, monolithic, no skipping.
    BeUniform,
    /// Shared-memory reads and acked writes over runtime-opened connections.
    ShmemRw,
    /// Hotspot BE streams on a two-shard split under `run_parallel`.
    HotspotPar,
    /// Pure-GT streams with fast-forward on.
    GtFf,
}

/// A workload and its size: mesh side, warm-up and window lengths.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Which workload.
    pub kind: Kind,
    /// Mesh side for the mesh workloads (`shmem_rw_4x4` is always 4x4).
    pub side: usize,
    /// Cycles run before the warm snapshot.
    pub warm: u64,
    /// Cycles per measured window.
    pub window: u64,
}

/// Shards of `hotspot_16x16_shard2_par` (one worker thread each).
const SHARDS: usize = 2;
/// Epoch batch of `hotspot_16x16_shard2_par`.
const BATCH: u64 = 16;
/// Master→slave connections of `shmem_rw_4x4`.
const SHMEM_CONNECTIONS: usize = 15;
/// Closed-loop window of every traffic generator.
const MAX_OUTSTANDING: usize = 4;
/// Memory access latency of every slave, in cycles.
const SLAVE_LATENCY: u64 = 2;
/// Longest burst a generator issues, in words.
const MAX_BURST: u8 = 8;

impl Plan {
    /// The named workloads at their benchmark size.
    pub fn named(name: &str) -> Option<Plan> {
        let (kind, side, warm, window) = match name {
            "be_uniform_16x16" => (Kind::BeUniform, 16, 2_000, 4_000),
            "shmem_rw_4x4" => (Kind::ShmemRw, 4, 2_000, 10_000),
            "hotspot_16x16_shard2_par" => (Kind::HotspotPar, 16, 2_000, 8_000),
            "gt_ff_16x16" => (Kind::GtFf, 16, 2_000, 10_000),
            _ => return None,
        };
        Some(Plan {
            kind,
            side,
            warm,
            window,
        })
    }

    /// Routers of the mesh.
    pub fn routers(&self) -> usize {
        match self.kind {
            Kind::ShmemRw => 16,
            _ => self.side * self.side,
        }
    }
}

/// How a workload's delivered words and transactions are read.
#[derive(Debug, Clone)]
pub enum Traffic {
    /// Stream meshes: words counted by the sinks at these NIs.
    Streams(Vec<usize>),
    /// GT meshes: words counted by the sinks at these NIs.
    Gt(Vec<usize>),
    /// Shared memory: per generator, its GT latency bound (`None` for BE).
    Shmem(Vec<Option<u64>>),
}

/// A built workload ready to run untraced. Built a few times per run, so
/// its size does not matter.
#[allow(clippy::large_enum_variant)]
pub enum Target {
    /// One system driven by `NocSystem::run`.
    Mono(NocSystem),
    /// A sharded system driven by `run_parallel`.
    Sharded(ShardedSystem),
}

/// Host times of the set-up steps, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// `NocSystem::from_spec` (`shmem_rw_4x4`; the mesh scenario functions
    /// call it internally).
    pub from_spec_ms: f64,
    /// Each `RuntimeConfigurator::open_connection`, in microseconds.
    pub open_us: Vec<f64>,
    /// `certify_system_with`.
    pub certify_ms: f64,
    /// `ShardedSystem::new`.
    pub split_ms: f64,
}

/// A workload after set-up.
pub struct Built {
    /// What runs.
    pub target: Target,
    /// How delivered words are read.
    pub traffic: Traffic,
    /// Set-up step times.
    pub times: SetupTimes,
    /// Configuration cost, for workloads configured through the NoC.
    pub config: Option<(ConfigStats, u64)>,
    /// Whether the configured system certified clean.
    pub certified: bool,
    /// Global ids of links that cross a shard boundary.
    pub cut_links: Vec<usize>,
}

/// Links whose two router ends sit in different row bands of `side`.
fn cut_links(sys: &NocSystem, side: usize, shards: usize) -> Vec<usize> {
    let part = Partition::mesh_rows(side, side, shards);
    sys.noc
        .links()
        .iter()
        .enumerate()
        .filter(|(_, l)| match (l.src, l.dst) {
            (Endpoint::Router { router: a, .. }, Endpoint::Router { router: b, .. }) => {
                part.shard_of(a) != part.shard_of(b)
            }
            _ => false,
        })
        .map(|(i, _)| i)
        .collect()
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn certify(topo: &Topology, sys: &NocSystem, times: &mut SetupTimes) -> bool {
    let t = Instant::now();
    let ok = aethereal_verify::certify_system_with(topo, sys).is_ok();
    times.certify_ms = ms_since(t);
    ok
}

/// The shared-memory system: configured through the NoC, IPs held.
pub struct Shmem {
    /// Spec the system was built from.
    pub spec: NocSpec,
    /// The configured system, no IP bound.
    pub sys: NocSystem,
    /// Traffic generators and memories.
    pub held: Held,
    /// Set-up step times.
    pub times: SetupTimes,
    /// Configuration cost and cycles.
    pub config: (ConfigStats, u64),
}

/// Generator seed of connection `k` under benchmark seed `seed`.
fn generator_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (k as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Builds `shmem_rw_4x4`: NI 0 is the configuration module, NIs 1–15 are
/// masters, NIs 16–30 slaves (two NIs per router, so masters sit in the
/// top half of the mesh and slaves in the bottom half). Connection `k`
/// joins master `1 + k` to slave `16 + k`; every fourth one is GT with one
/// slot each way, the rest BE. IPs are created only after every connection
/// is open.
pub fn shmem(seed: u64) -> Shmem {
    let mut nis = vec![presets::cfg_module_ni(0, 2 * SHMEM_CONNECTIONS)];
    nis.extend((1..=SHMEM_CONNECTIONS).map(presets::master_ni));
    nis.extend((SHMEM_CONNECTIONS + 1..32).map(presets::slave_ni));
    let spec = NocSpec::new(
        TopologySpec::Mesh {
            width: 4,
            height: 4,
            nis_per_router: 2,
        },
        nis,
    );
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let mut sys = NocSystem::from_spec(&spec);
    times.from_spec_ms = ms_since(t);
    let stu = sys.nis[0].kernel.spec().stu_slots;
    let mut cfg = RuntimeConfigurator::new(spec.topology.build(), 0, 0, stu);
    for k in 0..SHMEM_CONNECTIONS {
        let master = ChannelEnd {
            ni: 1 + k,
            channel: 1,
        };
        let slave = ChannelEnd {
            ni: 1 + SHMEM_CONNECTIONS + k,
            channel: 1,
        };
        let req = if k % 4 == 0 {
            ConnectionRequest::guaranteed(master, slave, 1)
        } else {
            ConnectionRequest::best_effort(master, slave)
        };
        let t = Instant::now();
        cfg.open_connection(&mut sys, &req)
            .expect("every shmem_rw_4x4 connection opens");
        times.open_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let config = (*cfg.stats(), sys.cycle());
    let mut held = Held::default();
    for k in 0..SHMEM_CONNECTIONS {
        let gen = TrafficGenerator::new(TrafficGeneratorConfig {
            seed: generator_seed(seed, k),
            addr_base: 0,
            addr_range: 0x1000,
            mix: TrafficMix::Mixed { read_fraction: 0.5 },
            burst: (1, MAX_BURST),
            gap_cycles: 0,
            total: None,
            max_outstanding: MAX_OUTSTANDING,
        });
        held.masters
            .push(HeldIp::new(&sys, 1 + k, 1, Vec::new(), Box::new(gen)));
        let mem = MemorySlave::new(SLAVE_LATENCY);
        let slave = 1 + SHMEM_CONNECTIONS + k;
        held.slaves
            .push(HeldIp::new(&sys, slave, 1, Vec::new(), Box::new(mem)));
    }
    Shmem {
        spec,
        sys,
        held,
        times,
        config,
    }
}

/// Latency bound of a GT transaction on connection `k`, composed from
/// `verify::bounds`: with at most [`MAX_OUTSTANDING`] transactions in
/// flight, a request waits behind at most that many request messages on
/// the forward flow, the slave serves each in [`SLAVE_LATENCY`], and the
/// response waits behind at most that many response messages on the
/// reverse flow. `None` for BE connections.
fn shmem_gt_bounds(cert: &aethereal_verify::Certificate, stu: usize) -> Vec<Option<u64>> {
    let m = MAX_OUTSTANDING;
    let request_words = 2 + usize::from(MAX_BURST);
    let response_words = 1 + usize::from(MAX_BURST);
    (0..SHMEM_CONNECTIONS)
        .map(|k| {
            let fwd = cert.flow(1 + k, 1)?;
            let rev = cert.flow(1 + SHMEM_CONNECTIONS + k, 1)?;
            (fwd.gt && rev.gt).then(|| {
                worst_case_latency(stu, fwd, m * request_words)
                    + m as u64 * SLAVE_LATENCY
                    + worst_case_latency(stu, rev, m * response_words)
            })
        })
        .collect()
}

/// `(src, dst, rx channel)` of every stream of `stream_mesh`, in its
/// binding order (uniform and hotspot shapes).
fn streams(side: usize, traffic: MeshTraffic) -> Vec<(usize, usize, ChannelId)> {
    match traffic {
        MeshTraffic::Uniform => (0..side * side)
            .map(|ni| {
                let (x, y) = (ni % side, ni / side);
                (ni, ((y + side / 2) % side) * side + x, 2)
            })
            .collect(),
        MeshTraffic::Hotspot => {
            let c = side / 2 - 1;
            let sinks = [
                c * side + c,
                c * side + c + 1,
                (c + 1) * side + c,
                (c + 1) * side + c + 1,
            ];
            let mut out = Vec::new();
            for y in c.saturating_sub(2)..(c + 4).min(side) {
                for x in c.saturating_sub(2)..(c + 4).min(side) {
                    let ni = y * side + x;
                    if !sinks.contains(&ni) {
                        let j = out.len();
                        out.push((ni, sinks[j % 4], 2 + j / 4));
                    }
                }
            }
            out
        }
        _ => unreachable!("only uniform and hotspot meshes are benchmarked"),
    }
}

/// The receiving NIs of `streams`, in order of first appearance.
fn sinks_of(streams: &[(usize, usize, ChannelId)]) -> Vec<usize> {
    let mut sinks: Vec<usize> = Vec::new();
    for &(_, dst, _) in streams {
        if !sinks.contains(&dst) {
            sinks.push(dst);
        }
    }
    sinks
}

/// The IPs `stream_mesh` binds, as benchmark-held models: an endless
/// source per stream, then one counting sink per receiving NI.
fn stream_ips(sys: &NocSystem, side: usize, traffic: MeshTraffic) -> Held {
    let streams = streams(side, traffic);
    let mut held = Held::default();
    for &(src, _, _) in &streams {
        let ip = Box::new(StreamSource::counting(u64::MAX));
        held.raws.push(HeldIp::new(sys, src, 1, vec![1], ip));
    }
    for ni in sinks_of(&streams) {
        let rx = streams.iter().filter(|s| s.1 == ni).map(|s| s.2).collect();
        let ip = Box::new(aethereal_bench::CountingSink::new());
        held.raws.push(HeldIp::new(sys, ni, 1, rx, ip));
    }
    held
}

/// The IPs `gt_stream_mesh` binds, as benchmark-held models.
fn gt_ips(sys: &NocSystem, side: usize) -> Held {
    let mut held = Held::default();
    for src in (0..side * side).step_by(2) {
        let source = Box::new(StreamSource::counting(u64::MAX));
        held.raws.push(HeldIp::new(sys, src, 1, vec![1], source));
        let sink = Box::new(aethereal_proto::CountingSink::new());
        held.raws.push(HeldIp::new(sys, src + 1, 1, vec![1], sink));
    }
    held
}

fn mesh_traffic(kind: Kind) -> MeshTraffic {
    match kind {
        Kind::HotspotPar => MeshTraffic::Hotspot,
        _ => MeshTraffic::Uniform,
    }
}

/// Builds the workload for an untraced run: build, configure, certify and
/// split — everything `setup_s` covers.
pub fn build(plan: &Plan, seed: u64) -> Built {
    let side = plan.side;
    let mut times = SetupTimes::default();
    match plan.kind {
        Kind::BeUniform | Kind::HotspotPar => {
            let (sys, topo, sinks) = stream_mesh(side, side, mesh_traffic(plan.kind));
            let certified = certify(&topo, &sys, &mut times);
            let (target, cut) = if plan.kind == Kind::HotspotPar {
                let cut = cut_links(&sys, side, SHARDS);
                let t = Instant::now();
                let part = Partition::mesh_rows(side, side, SHARDS);
                let sharded = ShardedSystem::new(sys, &topo, &part).with_batch(BATCH);
                times.split_ms = ms_since(t);
                (Target::Sharded(sharded), cut)
            } else {
                (Target::Mono(sys), Vec::new())
            };
            Built {
                target,
                traffic: Traffic::Streams(sinks),
                times,
                config: None,
                certified,
                cut_links: cut,
            }
        }
        Kind::GtFf => {
            let mut sys = gt_stream_mesh(side, side, side);
            let certified = certify(&Topology::mesh(side, side, 1), &sys, &mut times);
            sys.set_fast_forward(true);
            Built {
                target: Target::Mono(sys),
                traffic: traffic(plan),
                times,
                config: None,
                certified,
                cut_links: Vec::new(),
            }
        }
        Kind::ShmemRw => {
            let Shmem {
                spec,
                mut sys,
                held,
                mut times,
                config,
            } = shmem(seed);
            let t = Instant::now();
            let cert = aethereal_verify::certify_system(&spec, &sys);
            times.certify_ms = ms_since(t);
            let stu = sys.nis[0].kernel.spec().stu_slots;
            let bounds = cert
                .as_ref()
                .map(|c| shmem_gt_bounds(c, stu))
                .unwrap_or_default();
            held.bind_into(&mut sys);
            Built {
                target: Target::Mono(sys),
                traffic: Traffic::Shmem(bounds),
                times,
                config: Some(config),
                certified: cert.is_ok(),
                cut_links: Vec::new(),
            }
        }
    }
}

/// Builds the workload with benchmark-held IPs for the traced run.
/// Mesh workloads are built by the same library scenario functions; the
/// IPs those bind are never ticked, since the traced run ticks its own
/// copies.
/// Fast-forward stays off: it cannot walk held IPs.
pub fn build_held(plan: &Plan, seed: u64) -> (NocSystem, Held) {
    let side = plan.side;
    match plan.kind {
        Kind::BeUniform | Kind::HotspotPar => {
            let traffic = mesh_traffic(plan.kind);
            let (sys, _, _) = stream_mesh(side, side, traffic);
            let held = stream_ips(&sys, side, traffic);
            (sys, held)
        }
        Kind::GtFf => {
            let sys = gt_stream_mesh(side, side, side);
            let held = gt_ips(&sys, side);
            (sys, held)
        }
        Kind::ShmemRw => {
            let s = shmem(seed);
            (s.sys, s.held)
        }
    }
}

/// Read access to a running workload, wherever its IPs live.
pub trait State {
    /// Network statistics on global link ids.
    fn noc_stats(&self) -> NocStats;
    /// NI kernel statistics summed over all NIs.
    fn kernel_stats(&self) -> NiKernelStats;
    /// GT words dropped by routers for corrupted headers.
    fn orphans(&self) -> u64;
    /// Fast-forward activity.
    fn ff_stats(&self) -> FfStats;
    /// The first raw IP of type `T` at NI `ni`.
    fn raw<T: 'static>(&self, ni: usize) -> &T;
    /// Master IP `idx`.
    fn master<T: 'static>(&self, idx: usize) -> &T;
}

fn sum_kernel(stats: impl Iterator<Item = NiKernelStats>) -> NiKernelStats {
    let mut t = NiKernelStats::default();
    for s in stats {
        for c in 0..2 {
            t.packets_tx[c] += s.packets_tx[c];
            t.packets_rx[c] += s.packets_rx[c];
        }
        t.header_words_tx += s.header_words_tx;
        t.payload_words_tx += s.payload_words_tx;
        t.route_ext_words_tx += s.route_ext_words_tx;
        t.credit_only_tx += s.credit_only_tx;
        t.gt_slots_unused += s.gt_slots_unused;
        t.cnip_ops += s.cnip_ops;
        t.rx_drops += s.rx_drops;
    }
    t
}

fn orphans_of(sys: &NocSystem) -> u64 {
    sys.noc.routers().iter().map(Router::gt_orphans).sum()
}

impl State for NocSystem {
    fn noc_stats(&self) -> NocStats {
        self.noc.stats().clone()
    }
    fn kernel_stats(&self) -> NiKernelStats {
        sum_kernel(self.nis.iter().map(|ni| *ni.kernel.stats()))
    }
    fn orphans(&self) -> u64 {
        orphans_of(self)
    }
    fn ff_stats(&self) -> FfStats {
        NocSystem::ff_stats(self)
    }
    fn raw<T: 'static>(&self, ni: usize) -> &T {
        self.raw_ip_at::<T>(ni)
    }
    fn master<T: 'static>(&self, idx: usize) -> &T {
        self.master_ip_as::<T>(idx)
    }
}

impl State for ShardedSystem {
    fn noc_stats(&self) -> NocStats {
        self.merged_noc_stats()
    }
    fn kernel_stats(&self) -> NiKernelStats {
        sum_kernel(ShardedSystem::kernel_stats(self).into_iter())
    }
    fn orphans(&self) -> u64 {
        self.regions().iter().map(orphans_of).sum()
    }
    fn ff_stats(&self) -> FfStats {
        ShardedSystem::ff_stats(self)
    }
    fn raw<T: 'static>(&self, ni: usize) -> &T {
        self.raw_ip_as::<T>(ni)
    }
    fn master<T: 'static>(&self, _: usize) -> &T {
        unreachable!("no sharded workload has masters")
    }
}

/// A system whose IPs the benchmark holds.
impl State for (&NocSystem, &Held) {
    fn noc_stats(&self) -> NocStats {
        self.0.noc_stats()
    }
    fn kernel_stats(&self) -> NiKernelStats {
        State::kernel_stats(self.0)
    }
    fn orphans(&self) -> u64 {
        orphans_of(self.0)
    }
    fn ff_stats(&self) -> FfStats {
        FfStats::default()
    }
    fn raw<T: 'static>(&self, ni: usize) -> &T {
        self.1.raw_at::<T>(ni)
    }
    fn master<T: 'static>(&self, idx: usize) -> &T {
        self.1.master::<T>(idx)
    }
}

impl State for Target {
    fn noc_stats(&self) -> NocStats {
        match self {
            Target::Mono(s) => s.noc_stats(),
            Target::Sharded(s) => s.noc_stats(),
        }
    }
    fn kernel_stats(&self) -> NiKernelStats {
        match self {
            Target::Mono(s) => State::kernel_stats(s),
            Target::Sharded(s) => State::kernel_stats(s),
        }
    }
    fn orphans(&self) -> u64 {
        match self {
            Target::Mono(s) => s.orphans(),
            Target::Sharded(s) => s.orphans(),
        }
    }
    fn ff_stats(&self) -> FfStats {
        match self {
            Target::Mono(s) => State::ff_stats(s),
            Target::Sharded(s) => State::ff_stats(s),
        }
    }
    fn raw<T: 'static>(&self, ni: usize) -> &T {
        match self {
            Target::Mono(s) => s.raw::<T>(ni),
            Target::Sharded(s) => s.raw::<T>(ni),
        }
    }
    fn master<T: 'static>(&self, idx: usize) -> &T {
        match self {
            Target::Mono(s) => State::master::<T>(s, idx),
            Target::Sharded(s) => State::master::<T>(s, idx),
        }
    }
}

impl Target {
    /// Runs `cycles` the way the workload is measured.
    pub fn run(&mut self, cycles: u64) {
        match self {
            Target::Mono(s) => s.run(cycles),
            Target::Sharded(s) => s.run_parallel(cycles),
        }
    }

    /// Captures the whole dynamic state.
    pub fn snapshot(&mut self) -> Value {
        match self {
            Target::Mono(s) => s.snapshot(),
            Target::Sharded(s) => s.snapshot(),
        }
        .expect("every benchmarked IP persists its state")
    }

    /// Restores a state captured by [`Target::snapshot`]; `false` if the
    /// system refused it.
    pub fn restore(&mut self, snap: &Value) -> bool {
        match self {
            Target::Mono(s) => s.restore(snap),
            Target::Sharded(s) => s.restore(snap),
        }
        .is_ok()
    }
}

/// Everything observable about a workload at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct Obs {
    /// Network statistics.
    pub noc: NocStats,
    /// NI kernel statistics, summed.
    pub kernel: NiKernelStats,
    /// Fast-forward activity.
    pub ff: FfStats,
    /// Router-detected invariant violations: GT conflicts, BE overflows
    /// and GT orphans.
    pub violations: u64,
    /// Words consumed at sinks, or moved by generators.
    pub delivered: u64,
    /// Transactions completed (generators only).
    pub transactions: u64,
    /// Error responses (generators only).
    pub errors: u64,
    /// Latency samples of each generator.
    pub latencies: Vec<Vec<u64>>,
}

/// Reads `state` through the workload's traffic readout.
pub fn observe<S: State>(traffic: &Traffic, state: &S) -> Obs {
    let noc = state.noc_stats();
    let violations = noc.gt_conflicts + noc.be_overflows + state.orphans();
    let mut obs = Obs {
        noc,
        kernel: state.kernel_stats(),
        ff: state.ff_stats(),
        violations,
        delivered: 0,
        transactions: 0,
        errors: 0,
        latencies: Vec::new(),
    };
    match traffic {
        Traffic::Streams(sinks) => {
            obs.delivered = sinks
                .iter()
                .map(|&ni| state.raw::<aethereal_bench::CountingSink>(ni).received())
                .sum();
        }
        Traffic::Gt(sinks) => {
            obs.delivered = sinks
                .iter()
                .map(|&ni| state.raw::<aethereal_proto::CountingSink>(ni).count())
                .sum();
        }
        Traffic::Shmem(bounds) => {
            for k in 0..bounds.len() {
                let g = state.master::<TrafficGenerator>(k);
                obs.delivered += g.words_moved();
                obs.transactions += g.completed();
                obs.errors += g.errors();
                obs.latencies.push(g.latency_samples().to_vec());
            }
        }
    }
    obs
}

/// What happened between two observations.
pub fn delta(a: &Obs, b: &Obs) -> Obs {
    let mut noc = b.noc.clone();
    noc.cycles -= a.noc.cycles;
    noc.gt_conflicts -= a.noc.gt_conflicts;
    noc.be_overflows -= a.noc.be_overflows;
    for c in 0..2 {
        noc.delivered[c] -= a.noc.delivered[c];
    }
    for (l, la) in noc.links.iter_mut().zip(&a.noc.links) {
        for c in 0..2 {
            l.words[c] -= la.words[c];
            l.headers[c] -= la.headers[c];
        }
    }
    let k = |f: fn(&NiKernelStats) -> u64| f(&b.kernel) - f(&a.kernel);
    let kernel = NiKernelStats {
        packets_tx: [
            b.kernel.packets_tx[0] - a.kernel.packets_tx[0],
            b.kernel.packets_tx[1] - a.kernel.packets_tx[1],
        ],
        packets_rx: [
            b.kernel.packets_rx[0] - a.kernel.packets_rx[0],
            b.kernel.packets_rx[1] - a.kernel.packets_rx[1],
        ],
        header_words_tx: k(|s| s.header_words_tx),
        payload_words_tx: k(|s| s.payload_words_tx),
        route_ext_words_tx: k(|s| s.route_ext_words_tx),
        credit_only_tx: k(|s| s.credit_only_tx),
        gt_slots_unused: k(|s| s.gt_slots_unused),
        cnip_ops: k(|s| s.cnip_ops),
        rx_drops: k(|s| s.rx_drops),
    };
    Obs {
        noc,
        kernel,
        ff: FfStats {
            jumps: b.ff.jumps - a.ff.jumps,
            cycles_jumped: b.ff.cycles_jumped - a.ff.cycles_jumped,
        },
        violations: b.violations - a.violations,
        delivered: b.delivered - a.delivered,
        transactions: b.transactions - a.transactions,
        errors: b.errors - a.errors,
        latencies: b
            .latencies
            .iter()
            .zip(&a.latencies)
            .map(|(lb, la)| lb[la.len()..].to_vec())
            .collect(),
    }
}

impl Obs {
    /// Words carried by all links.
    pub fn link_words(&self) -> u64 {
        self.noc.links.iter().map(|l| l.total_words()).sum()
    }

    /// Words carried by the given links.
    pub fn words_on(&self, links: &[usize]) -> u64 {
        links.iter().map(|&l| self.noc.links[l].total_words()).sum()
    }

    /// GT transactions slower than their connection's bound.
    pub fn over_bound(&self, traffic: &Traffic) -> u64 {
        let Traffic::Shmem(bounds) = traffic else {
            return 0;
        };
        self.latencies
            .iter()
            .zip(bounds)
            .filter_map(|(l, b)| b.map(|b| l.iter().filter(|&&x| x > b).count() as u64))
            .sum()
    }

    /// The simulated figures the traced and sharded paths must reproduce:
    /// everything except fast-forward bookkeeping, which depends on
    /// whether the run fast-forwards.
    pub fn same_simulation(&self, other: &Obs) -> bool {
        Obs {
            ff: other.ff,
            ..self.clone()
        } == *other
    }
}

/// The plain library build of a mesh workload, IPs bound, monolithic,
/// fast-forward off.
pub fn plain_mesh(plan: &Plan) -> NocSystem {
    let side = plan.side;
    match plan.kind {
        Kind::GtFf => gt_stream_mesh(side, side, side),
        _ => stream_mesh(side, side, mesh_traffic(plan.kind)).0,
    }
}

/// Runs [`plain_mesh`] for `warm + window` cycles and returns the window:
/// the reference the sharded and fast-forwarded runs must match.
pub fn mono_reference(plan: &Plan) -> Obs {
    let mut sys = plain_mesh(plan);
    let traffic = traffic(plan);
    sys.run(plan.warm);
    let a = observe(&traffic, &sys);
    sys.run(plan.window);
    delta(&a, &observe(&traffic, &sys))
}

/// The traffic readout of a workload. Shared-memory GT bounds come from
/// the certificate of the measured build; here they are left out.
pub fn traffic(plan: &Plan) -> Traffic {
    let side = plan.side;
    match plan.kind {
        Kind::BeUniform | Kind::HotspotPar => {
            Traffic::Streams(sinks_of(&streams(side, mesh_traffic(plan.kind))))
        }
        Kind::GtFf => Traffic::Gt((1..side * side).step_by(2).collect()),
        Kind::ShmemRw => Traffic::Shmem(vec![None; SHMEM_CONNECTIONS]),
    }
}

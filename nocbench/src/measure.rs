//! The two run modes: the untraced run that gives the end-to-end metrics and
//! the traced run that gives the per-layer metrics.

use crate::stats::{median, per, percentile, ratio};
use crate::trace::{Replay, Spans};
use crate::workloads::{
    build, build_held, delta, mono_reference, observe, plain_mesh, traffic, Built, Kind, Obs, Plan,
    Target,
};
use aethereal_cfg::json::to_string_compact;
use noc_sim::Engine;
use std::time::Instant;

/// Builds per untraced run; `setup_s` is their median.
const SETUPS: usize = 21;
/// Fewest measured windows per untraced run.
const MIN_WINDOWS: usize = 3;
/// Cycles per `run` call while sampling the awake regions of a sharded run.
const AWAKE_CHUNK: u64 = 512;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: transactions or windows, plus output checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Names of the failed checks, for the error stream.
    pub failures: Vec<String>,
    /// Reported metrics, in order.
    pub metrics: Vec<Metric>,
    /// Host-independent work counts of one measured window.
    pub work: Vec<(&'static str, u64)>,
}

impl Report {
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_string());
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident memory of this process (VmHWM), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Work counts every record carries: if these change between two commits,
/// the simulated behaviour changed, not only its speed.
fn work_counts(plan: &Plan, w: &Obs) -> Vec<(&'static str, u64)> {
    let ticked_or_skipped = plan.window - w.ff.cycles_jumped;
    vec![
        ("sim_cycles", plan.window),
        ("router_cycles", plan.routers() as u64 * ticked_or_skipped),
        ("link_words", w.link_words()),
        ("delivered_words", w.delivered),
        ("transactions", w.transactions),
    ]
}

fn all_latencies(w: &Obs) -> Vec<u64> {
    w.latencies.iter().flatten().copied().collect()
}

/// The untraced run: set-up, warm-up, then fixed windows from the warm
/// snapshot until `seconds` have passed, then the output checks. Before
/// each window the warm state is restored, then restored again and
/// snapshotted with both timed, so those samples span the whole run like
/// the window rates do and always see the same state.
pub fn untraced(plan: &Plan, seed: u64, seconds: f64) -> Report {
    let mut r = Report::default();
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        built = Some(build(plan, seed));
        setup.push(secs(t));
    }
    let Built {
        mut target,
        traffic,
        config,
        certified,
        ..
    } = built.expect("at least one set-up ran");
    r.check("certify_system is clean after configuration", certified);

    target.run(plan.warm);
    let warm = target.snapshot();
    let mut cycle_rates = Vec::new();
    let mut word_rates = Vec::new();
    let mut snapshot_ms = Vec::new();
    let mut restore_ms = Vec::new();
    let mut first: Option<Obs> = None;
    let start = Instant::now();
    while cycle_rates.len() < MIN_WINDOWS || secs(start) < seconds {
        let mut restored = target.restore(&warm);
        let t = Instant::now();
        restored &= target.restore(&warm);
        restore_ms.push(secs(t) * 1e3);
        let t = Instant::now();
        std::hint::black_box(target.snapshot());
        snapshot_ms.push(secs(t) * 1e3);
        let a = observe(&traffic, &target);
        let t = Instant::now();
        target.run(plan.window);
        let dt = secs(t);
        let w = delta(&a, &observe(&traffic, &target));
        cycle_rates.push(plan.window as f64 / dt);
        word_rates.push(w.delivered as f64 / dt);
        let sound = restored
            && w.violations == 0
            && (plan.kind != Kind::GtFf || w.ff.jumps > 0)
            && first.as_ref().is_none_or(|f| *f == w);
        if plan.kind == Kind::ShmemRw {
            r.attempted += w.transactions;
            r.failed += w.errors + w.over_bound(&traffic);
            if w.errors + w.over_bound(&traffic) > 0 {
                r.failures
                    .push("transactions failed or missed their GT bound".into());
            }
            if !sound {
                r.check("window is clean and repeats the first", false);
            }
        } else {
            r.check("window is clean and repeats the first", sound);
        }
        first.get_or_insert(w);
    }
    let first = first.expect("at least one window ran");

    // Read before the reference check below builds a second system.
    let peak_rss = peak_rss_mib();
    let snap = target.snapshot();
    let restored = target.restore(&snap);
    let again = target.snapshot();
    r.check(
        "a restored snapshot re-captures identically",
        restored && to_string_compact(&snap) == to_string_compact(&again),
    );
    if matches!(plan.kind, Kind::HotspotPar | Kind::GtFf) {
        r.check(
            "the measured run delivers what the plain monolithic run delivers",
            mono_reference(plan).same_simulation(&first),
        );
    }

    let lat = all_latencies(&first);
    r.metric("sim_cycles_per_s", median(&cycle_rates), "cycles/s");
    r.metric("delivered_words_per_s", median(&word_rates), "words/s");
    r.metric("setup_s", median(&setup), "s");
    r.metric("snapshot_ms", median(&snapshot_ms), "ms");
    r.metric("restore_ms", median(&restore_ms), "ms");
    r.metric("peak_rss_mib", peak_rss, "MiB");
    r.metric(
        "success_ratio",
        1.0 - ratio(r.failed as f64, r.attempted as f64),
        "ratio",
    );
    r.metric(
        "sim_words_per_kcycle",
        first.delivered as f64 * 1e3 / plan.window as f64,
        "words/kcycle",
    );
    r.work = work_counts(plan, &first);
    r.work.extend([
        ("windows", cycle_rates.len() as u64),
        ("latency_samples", lat.len() as u64),
        ("latency_p50_cycles", percentile(&lat, 50.0)),
        ("latency_p99_cycles", percentile(&lat, 99.0)),
        ("config_cycles", config.map_or(0, |c| c.1)),
    ]);
    r
}

fn add(a: &mut Spans, b: &Spans) {
    a.ip_ns += b.ip_ns;
    a.ni_absorb_ns += b.ni_absorb_ns;
    a.ni_emit_ns += b.ni_emit_ns;
    a.noc_emit_ns += b.noc_emit_ns;
    a.noc_absorb_ns += b.noc_absorb_ns;
    a.tick_ns += b.tick_ns;
    a.ticked += b.ticked;
    a.quiescent_calls += b.quiescent_calls;
    a.quiescent_ns += b.quiescent_ns;
    a.skipped += b.skipped;
    a.ff_attempts += b.ff_attempts;
    a.ff_jumps += b.ff_jumps;
    a.ff_jumped += b.ff_jumped;
    a.ff_ns += b.ff_ns;
}

/// Runs `warm` then one measured window through a [`Replay`], returning
/// the window's spans, host seconds and observation delta.
fn replay_window(
    plan: &Plan,
    sys: &mut aethereal_cfg::NocSystem,
    mut held: Option<&mut crate::trace::Held>,
    ff: bool,
) -> (Spans, f64, Obs) {
    let traffic = traffic(plan);
    let run = |rp: &mut Replay<'_>, n: u64| {
        if ff {
            Engine::run_ff(rp, n);
        } else {
            Engine::run(rp, n);
        }
    };
    run(&mut Replay::new(sys, held.as_deref_mut()), plan.warm);
    let obs = |sys: &aethereal_cfg::NocSystem, held: Option<&crate::trace::Held>| match held {
        Some(h) => observe(&traffic, &(sys, h)),
        None => observe(&traffic, sys),
    };
    let a = obs(sys, held.as_deref());
    let (spans, dt) = {
        let mut rp = Replay::new(sys, held.as_deref_mut());
        let t = Instant::now();
        run(&mut rp, plan.window);
        (rp.spans(), secs(t))
    };
    let b = obs(sys, held.as_deref());
    (spans, dt, delta(&a, &b))
}

/// Times of one traced repetition, in milliseconds unless named otherwise.
#[derive(Default)]
struct Rep {
    overhead: f64,
    mono_ms: f64,
    seq_ms: f64,
    par_ms: f64,
    awake_mean: f64,
    certify_ms: f64,
    split_ms: f64,
    from_spec_ms: f64,
    open_us: f64,
    text_ms: f64,
}

/// The traced run: repetitions of (untraced reference window, traced
/// replay of the same window, and the workload's extra runs) until
/// `seconds` have passed. Spans add up over repetitions; host times are
/// medians over them.
pub fn traced(plan: &Plan, seed: u64, seconds: f64) -> Report {
    let mut r = Report::default();
    let mut phase = Spans::default();
    let mut engine = Spans::default();
    let mut reps: Vec<Rep> = Vec::new();
    let mut reference: Option<(Obs, Built)> = None;
    let mut snapshot_bytes = 0;
    let start = Instant::now();
    while reps.is_empty() || secs(start) < seconds {
        let mut rep = Rep::default();
        // The untraced run over the same window.
        let mut b = build(plan, seed);
        r.check("certify_system is clean after configuration", b.certified);
        let tr = traffic(plan);
        b.target.run(plan.warm);
        let a = observe(&tr, &b.target);
        let t = Instant::now();
        b.target.run(plan.window);
        let ref_s = secs(t);
        let ref_w = delta(&a, &observe(&tr, &b.target));
        let snap = b.target.snapshot();
        let t = Instant::now();
        let text = to_string_compact(&snap);
        rep.text_ms = secs(t) * 1e3;
        snapshot_bytes = text.len();
        rep.certify_ms = b.times.certify_ms;
        rep.split_ms = b.times.split_ms;
        rep.from_spec_ms = b.times.from_spec_ms;
        rep.open_us = median(&b.times.open_us);

        // Phase-split replay with held IPs (fast-forward off).
        let (mut sys, mut held) = build_held(plan, seed);
        let (spans, held_s, held_w) = replay_window(plan, &mut sys, Some(&mut held), false);
        r.check(
            "traced replay reproduces the untraced window",
            held_w.same_simulation(&ref_w),
        );
        add(&mut phase, &spans);
        rep.overhead = held_s / ref_s;

        match plan.kind {
            Kind::GtFf => {
                // The engine loop with fast-forward, IPs bound.
                let Target::Mono(mut sys) = build(plan, seed).target else {
                    unreachable!("gt_ff_16x16 is monolithic")
                };
                let (spans, ff_s, ff_w) = replay_window(plan, &mut sys, None, true);
                r.check(
                    "traced fast-forward reproduces the untraced window",
                    ff_w == ref_w,
                );
                add(&mut engine, &spans);
                rep.overhead = ff_s / ref_s;
            }
            Kind::HotspotPar => {
                let mut mono = plain_mesh(plan);
                mono.run(plan.warm);
                let t = Instant::now();
                mono.run(plan.window);
                rep.mono_ms = secs(t) * 1e3;
                let Target::Sharded(mut seq) = build(plan, seed).target else {
                    unreachable!("hotspot_16x16_shard2_par is sharded")
                };
                seq.run(plan.warm);
                let a = observe(&tr, &seq);
                let t = Instant::now();
                seq.run(plan.window);
                rep.seq_ms = secs(t) * 1e3;
                let seq_w = delta(&a, &observe(&tr, &seq));
                r.check(
                    "sequential shards reproduce the parallel window",
                    seq_w == ref_w,
                );
                // The activity set is visible only between run calls:
                // sample it over one more, untimed window.
                let mut awake = Vec::new();
                for _ in 0..plan.window.div_ceil(AWAKE_CHUNK) {
                    seq.run(AWAKE_CHUNK);
                    awake.push(seq.awake_count() as f64);
                }
                rep.par_ms = ref_s * 1e3;
                rep.awake_mean = awake.iter().sum::<f64>() / awake.len() as f64;
                rep.overhead = held_s / (rep.mono_ms / 1e3);
            }
            _ => {}
        }
        reps.push(rep);
        reference = Some((ref_w, b));
    }
    if plan.kind != Kind::GtFf {
        engine = phase.clone();
    }
    let (w, b) = reference.expect("at least one repetition ran");
    per_layer(&mut r, plan, &w, &b, &phase, &engine, &reps, snapshot_bytes);
    r.work = work_counts(plan, &w);
    r
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    r: &mut Report,
    plan: &Plan,
    w: &Obs,
    b: &Built,
    phase: &Spans,
    engine: &Spans,
    reps: &[Rep],
    snapshot_bytes: usize,
) {
    let n = reps.len() as u64;
    let med = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let lat = all_latencies(w);
    let k = &w.kernel;
    let routers = plan.routers() as u64;
    let skipped = engine.skipped / n;
    let jumped = engine.ff_jumped / n;
    let ticked = plan.window - skipped - jumped;
    let emitted = k.header_words_tx + k.payload_words_tx + k.route_ext_words_tx;

    r.metric(
        "proto.ip_tick_ns_per_cycle",
        per(phase.ip_ns, phase.ticked),
        "ns",
    );
    r.metric("proto.transactions", w.transactions as f64, "count");
    r.metric("proto.latency_samples", lat.len() as f64, "count");
    r.metric(
        "proto.latency_p50_cycles",
        percentile(&lat, 50.0) as f64,
        "cycles",
    );
    r.metric(
        "proto.latency_p99_cycles",
        percentile(&lat, 99.0) as f64,
        "cycles",
    );

    r.metric(
        "core.ni_absorb_ns_per_cycle",
        per(phase.ni_absorb_ns, phase.ticked),
        "ns",
    );
    r.metric(
        "core.ni_emit_ns_per_cycle",
        per(phase.ni_emit_ns, phase.ticked),
        "ns",
    );
    r.metric(
        "core.packets_tx",
        (k.packets_tx[0] + k.packets_tx[1]) as f64,
        "count",
    );
    r.metric("core.payload_words_tx", k.payload_words_tx as f64, "count");
    r.metric("core.header_words_tx", k.header_words_tx as f64, "count");
    r.metric("core.credit_only_tx", k.credit_only_tx as f64, "count");
    r.metric("core.gt_slots_unused", k.gt_slots_unused as f64, "count");
    r.metric(
        "core.payload_efficiency",
        ratio(k.payload_words_tx as f64, emitted as f64),
        "ratio",
    );

    r.metric(
        "sim.noc_emit_ns_per_cycle",
        per(phase.noc_emit_ns, phase.ticked),
        "ns",
    );
    r.metric(
        "sim.noc_absorb_ns_per_cycle",
        per(phase.noc_absorb_ns, phase.ticked),
        "ns",
    );
    r.metric("sim.cycles", plan.window as f64, "cycles");
    r.metric("sim.router_cycles", (routers * ticked) as f64, "count");
    r.metric("sim.link_words", w.link_words() as f64, "count");
    r.metric("sim.delivered_words", w.delivered as f64, "count");
    r.metric(
        "sim.ns_per_router_cycle",
        per(
            phase.noc_emit_ns + phase.noc_absorb_ns,
            routers * phase.ticked,
        ),
        "ns",
    );
    r.metric("sim.delivered_gt", w.noc.delivered[0] as f64, "count");
    r.metric("sim.delivered_be", w.noc.delivered[1] as f64, "count");

    r.metric("engine.cycles_ticked", ticked as f64, "cycles");
    r.metric("engine.cycles_skipped", skipped as f64, "cycles");
    r.metric("engine.cycles_jumped", jumped as f64, "cycles");
    r.metric(
        "engine.ff_attempts",
        (engine.ff_attempts / n) as f64,
        "count",
    );
    r.metric("engine.ff_jumps", (engine.ff_jumps / n) as f64, "count");
    r.metric(
        "engine.ff_jump_fraction",
        jumped as f64 / plan.window as f64,
        "ratio",
    );
    r.metric(
        "engine.ff_ns_per_attempt",
        per(engine.ff_ns, engine.ff_attempts),
        "ns",
    );
    r.metric(
        "engine.tick_ns_per_cycle",
        per(engine.tick_ns, engine.ticked),
        "ns",
    );
    r.metric(
        "engine.quiescence_check_ns_per_call",
        per(engine.quiescent_ns, engine.quiescent_calls),
        "ns",
    );

    r.metric("shard.mono_ms", med(|x| x.mono_ms), "ms");
    r.metric("shard.seq_ms", med(|x| x.seq_ms), "ms");
    r.metric("shard.par_ms", med(|x| x.par_ms), "ms");
    r.metric(
        "shard.seq_overhead",
        med(|x| ratio(x.seq_ms, x.mono_ms)),
        "ratio",
    );
    r.metric(
        "shard.par_speedup",
        med(|x| ratio(x.mono_ms, x.par_ms)),
        "ratio",
    );
    r.metric("shard.cut_words", w.words_on(&b.cut_links) as f64, "count");
    r.metric("shard.awake_regions_mean", med(|x| x.awake_mean), "count");

    let (cs, config_cycles) = b.config.unwrap_or_default();
    let conns = if b.config.is_some() {
        cs.connections_opened
    } else {
        0
    };
    r.metric("cfg.from_spec_ms", med(|x| x.from_spec_ms), "ms");
    r.metric("cfg.open_connection_us", med(|x| x.open_us), "us");
    r.metric("cfg.config_cycles", config_cycles as f64, "cycles");
    r.metric(
        "cfg.config_cycles_per_connection",
        ratio(config_cycles as f64, conns as f64),
        "cycles",
    );
    r.metric("cfg.remote_writes", cs.remote_writes as f64, "count");
    r.metric("cfg.config_messages", cs.config_messages as f64, "count");
    r.metric("cfg.shard_split_ms", med(|x| x.split_ms), "ms");
    r.metric("cfg.snapshot_text_ms", med(|x| x.text_ms), "ms");
    r.metric("cfg.snapshot_bytes", snapshot_bytes as f64, "bytes");

    r.metric("verify.certify_ms", med(|x| x.certify_ms), "ms");
    r.metric("trace.overhead_ratio", med(|x| x.overhead), "ratio");
    r.metric("trace.repetitions", n as f64, "count");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(kind: Kind, side: usize, window: u64) -> Plan {
        Plan {
            kind,
            side,
            warm: 300,
            window,
        }
    }

    fn small_plans() -> [Plan; 4] {
        [
            small(Kind::BeUniform, 4, 600),
            small(Kind::ShmemRw, 4, 1_500),
            small(Kind::HotspotPar, 8, 600),
            small(Kind::GtFf, 4, 600),
        ]
    }

    /// Metric names listed under `key` in `BENCHMARK.json`.
    fn listed(key: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find(&format!("\"{key}\"")).expect("key is listed");
        let section = &text[start..];
        let end = section[1..].find("\n  \"").map_or(section.len(), |e| e + 1);
        section[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name is quoted")].to_string())
            .collect()
    }

    fn names(r: &Report) -> Vec<String> {
        r.metrics.iter().map(|m| m.name.to_string()).collect()
    }

    #[test]
    fn traced_replay_reproduces_untraced_runs_on_small_meshes() {
        for plan in small_plans() {
            let r = traced(&plan, 7, 0.0);
            assert!(r.correct(), "{:?}: {:?}", plan.kind, r.failures);
            assert_eq!(names(&r), listed("per_layer"), "{:?}", plan.kind);
        }
    }

    #[test]
    fn untraced_runs_pass_their_checks_on_small_meshes() {
        for plan in small_plans() {
            let r = untraced(&plan, 7, 0.0);
            assert!(r.correct(), "{:?}: {:?}", plan.kind, r.failures);
            assert!(r.attempted >= MIN_WINDOWS as u64);
            assert_eq!(names(&r), listed("end_to_end"), "{:?}", plan.kind);
            assert!(r.metrics.iter().all(|m| m.value > 0.0), "{:?}", r.metrics);
        }
    }

    #[test]
    fn every_listed_workload_is_runnable() {
        let workloads = listed("workloads");
        assert_eq!(workloads.len(), 4);
        for w in workloads {
            assert!(Plan::named(&w).is_some(), "{w}");
        }
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check("passes", true);
        assert!(r.correct());
        r.check("fails", false);
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert_eq!(r.failures, ["fails"]);
    }
}

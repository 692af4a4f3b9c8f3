//! Trace determinism: the observability layer's core contract. Two
//! same-seed runs of a faulted simulation must emit bit-identical
//! JSON-lines traces — simulated time and typed payloads only, no
//! wall-clock, no addresses, no iteration-order leaks.

use p2p_resource_pool::prelude::*;
use p2p_resource_pool::simcore::trace::to_json_lines;

/// A faulted market run with the tracer attached: helper and root crashes,
/// leases, failover, crash repair — every market event family fires.
fn traced_market(seed: u64) -> (String, u64) {
    traced_market_k(seed, 1)
}

/// [`traced_market`] with `k_trees` degree-disjoint trees per session —
/// at k > 1 the multipath failover/rebuild event families fire too.
fn traced_market_k(seed: u64, k_trees: usize) -> (String, u64) {
    let pool = ResourcePool::build(
        &PoolConfig {
            net: NetworkConfig {
                num_hosts: 300,
                ..NetworkConfig::default()
            },
            coord_rounds: 4,
            ..PoolConfig::default()
        },
        seed,
    );
    let mut faults = simcore::FaultPlan::none();
    for h in (0..300u64).step_by(7) {
        faults = faults.crash_forever(h, SimTime::from_secs(600 + h));
    }
    let cfg = MarketConfig {
        sessions: 9,
        member_size: 12,
        horizon: SimTime::from_secs(1800),
        warmup: SimTime::from_secs(300),
        faults,
        plan: PlanConfig {
            k_trees,
            ..PlanConfig::default()
        },
        ..MarketConfig::default()
    };
    let mut sim = MarketSim::new(pool, cfg, seed);
    sim.set_tracer(Tracer::ring(1 << 16));
    let (out, _) = sim.run_full();
    (to_json_lines(&out.trace), out.trace.len() as u64)
}

#[test]
fn faulted_market_traces_are_bit_identical_across_runs() {
    let (a, n) = traced_market(29);
    let (b, _) = traced_market(29);
    assert!(n > 0, "a faulted market run must emit trace records");
    assert_eq!(a, b, "same-seed market traces diverged");
    // The fault machinery actually showed up in the trace.
    for needle in ["MarketReserve", "MarketHostFault", "MarketCrashDetect"] {
        assert!(a.contains(needle), "no {needle} event in the trace");
    }
}

#[test]
fn faulted_multipath_market_traces_are_bit_identical_across_runs() {
    // Same workload at k = 2: the standby-tree machinery (failover
    // promotion, lazy rebuild) must replay bit-for-bit and actually
    // surface in the trace.
    let (a, n) = traced_market_k(29, 2);
    let (b, _) = traced_market_k(29, 2);
    assert!(n > 0, "a faulted multipath run must emit trace records");
    assert_eq!(a, b, "same-seed multipath market traces diverged");
    for needle in ["MarketTreeFailover", "MarketTreeRebuilt"] {
        assert!(a.contains(needle), "no {needle} event in the trace");
    }
}

/// A faulted, traced market with same-instant plan waves: microsecond
/// arrival gap (every first start lands at `t = 0` and replans stay
/// phase-locked), snapshot view, and the tiered oracle so the per-plan
/// `OracleTiers` snapshots are part of the contract too.
fn traced_tiered_snapshot_market(seed: u64, k_trees: usize) -> String {
    let pool = ResourcePool::build(
        &PoolConfig {
            net: NetworkConfig {
                num_hosts: 300,
                ..NetworkConfig::default()
            },
            coord_rounds: 4,
            latency_source: LatencySource::Tiered(TieredConfig::default()),
            ..PoolConfig::default()
        },
        seed,
    );
    let mut faults = simcore::FaultPlan::none();
    for h in (0..300u64).step_by(13) {
        faults = faults.crash_forever(h, SimTime::from_secs(600 + h));
    }
    let cfg = MarketConfig {
        sessions: 12,
        member_size: 10,
        mean_gap: SimTime::from_micros(1),
        horizon: SimTime::from_secs(1500),
        warmup: SimTime::from_secs(300),
        view_refresh: Some(SimTime::from_secs(60)),
        faults,
        plan: PlanConfig {
            k_trees,
            ..PlanConfig::default()
        },
        ..MarketConfig::default()
    };
    let mut sim = MarketSim::new(pool, cfg, seed);
    sim.set_tracer(Tracer::ring(1 << 16));
    let (out, _) = sim.run_full();
    to_json_lines(&out.trace)
}

#[test]
fn tiered_snapshot_market_traces_are_bit_identical_across_runs() {
    // Every trace byte — per-plan relaxation and latency-call counts and
    // the tiered oracle's per-plan hit snapshots included — is a function
    // of the seed alone.
    let a = traced_tiered_snapshot_market(29, 1);
    let b = traced_tiered_snapshot_market(29, 1);
    assert_eq!(a, b, "same-seed tiered snapshot traces diverged");
    assert!(
        a.contains("OracleTiers"),
        "no per-plan tier snapshots in a tiered trace"
    );
}

#[test]
fn tiered_snapshot_multipath_market_traces_are_bit_identical_across_runs() {
    // k = 2: standby rounds scan the live pool behind every primary.
    let a = traced_tiered_snapshot_market(29, 2);
    let b = traced_tiered_snapshot_market(29, 2);
    assert_eq!(a, b, "same-seed multipath tiered snapshot traces diverged");
    assert!(
        a.contains("MarketTreeFailover") || a.contains("MarketTreeRebuilt"),
        "no multipath repair in the trace"
    );
}

/// A faulted Admission-mode market with starvation-level thresholds, so
/// the controller's whole surface — queue, degraded admission, retry,
/// rejection, pressure shifts — lands in the trace.
fn traced_admission_market(seed: u64) -> (String, u64) {
    let pool = ResourcePool::build(
        &PoolConfig {
            net: NetworkConfig {
                num_hosts: 300,
                ..NetworkConfig::default()
            },
            coord_rounds: 4,
            ..PoolConfig::default()
        },
        seed,
    );
    let mut faults = simcore::FaultPlan::none();
    for h in (0..300u64).step_by(7) {
        faults = faults.crash_forever(h, SimTime::from_secs(600 + h));
    }
    let cfg = MarketConfig {
        sessions: 24,
        member_size: 4,
        horizon: SimTime::from_secs(1800),
        warmup: SimTime::from_secs(300),
        faults,
        allocation: AllocationMode::Admission,
        admission: AdmissionConfig {
            scarce_free_frac: 0.995,
            degrade_free_frac: 0.9,
            backoff: SimTime::from_secs(20),
            max_attempts: 4,
            ..AdmissionConfig::default()
        },
        ..MarketConfig::default()
    };
    let mut sim = MarketSim::new(pool, cfg, seed);
    sim.set_tracer(Tracer::ring(1 << 16));
    let (out, _) = sim.run_full();
    (to_json_lines(&out.trace), out.trace.len() as u64)
}

#[test]
fn faulted_admission_market_traces_are_bit_identical_across_runs() {
    let (a, n) = traced_admission_market(31);
    let (b, _) = traced_admission_market(31);
    assert!(n > 0, "a faulted admission run must emit trace records");
    assert_eq!(a, b, "same-seed admission traces diverged");
    // Every stage of the controller actually surfaced.
    for needle in [
        "MarketAdmissionQueued",
        "MarketAdmissionDegraded",
        "MarketAdmissionRejected",
    ] {
        assert!(a.contains(needle), "no {needle} event in the trace");
    }
}

/// A faulted synchronized gather with a mid-run member kill: rounds open,
/// close (both reasons), and suppress stale timeouts.
fn traced_gather(seed: u64) -> (String, String) {
    use p2p_resource_pool::somo::flow::{FlowMode, FreshnessReport, GatherSim};
    let ring = Ring::with_random_ids((0..96).map(HostId), seed);
    let tree = SomoTree::build(&ring, 8);
    let plan = simcore::FaultPlan::with_loss(seed ^ 0x51, 0.05).jitter(SimTime::from_millis(15));
    let mut sim = GatherSim::with_faults(
        &tree,
        &ring,
        FlowMode::Synchronized,
        SimTime::from_secs(5),
        |_m, now| FreshnessReport::of_member(now),
        |a, b| {
            if a == b {
                SimTime::ZERO
            } else {
                SimTime::from_millis(150)
            }
        },
        plan,
    );
    sim.set_tracer(Tracer::ring(1 << 16));
    sim.run_until(SimTime::from_secs(30));
    sim.kill_member(7);
    sim.run_until(SimTime::from_secs(90));
    let trace = to_json_lines(&sim.take_trace().expect("ring tracer owns its records"));
    let metrics = sim.metrics().to_json_lines();
    (trace, metrics)
}

#[test]
fn faulted_gather_traces_and_metrics_are_bit_identical_across_runs() {
    let a = traced_gather(33);
    let b = traced_gather(33);
    assert!(!a.0.is_empty(), "a faulted gather must emit trace records");
    assert_eq!(a.0, b.0, "same-seed gather traces diverged");
    assert_eq!(a.1, b.1, "same-seed gather metrics diverged");
    for needle in ["GatherOpen", "GatherClose", "GatherRootView"] {
        assert!(a.0.contains(needle), "no {needle} event in the trace");
    }
    assert!(
        a.1.contains("gather.rounds_completed"),
        "metrics export missing round counters: {}",
        a.1
    );
}

#[test]
fn recovery_pipeline_phase_trace_is_bit_identical_across_runs() {
    use p2p_resource_pool::pool::recovery::{run_pipeline_traced, RecoveryConfig};
    let run = || {
        let plan = simcore::FaultPlan::with_loss(17, 0.03).jitter(SimTime::from_millis(10));
        let mut tracer = Tracer::ring(64);
        let out = run_pipeline_traced(
            &RecoveryConfig {
                n: 48,
                crashes: 3,
                plan,
                session_size: 16,
                ..RecoveryConfig::default()
            },
            &mut tracer,
        );
        (
            to_json_lines(&tracer.take_records().expect("ring tracer owns its records")),
            out,
        )
    };
    let (a, out) = run();
    let (b, _) = run();
    assert_eq!(a, b);
    // A fully recovered pipeline emits all four phases, in order.
    assert!(out.timeline.reattached_at.is_some());
    assert_eq!(a.matches("RecoveryPhase").count(), 4);
}

#[test]
fn dht_heartbeat_trace_is_bit_identical_across_runs() {
    use p2p_resource_pool::dht::proto::{DhtSim, ProtoConfig};
    let run = || {
        let ring = Ring::with_random_ids((0..48).map(HostId), 21);
        let plan = simcore::FaultPlan::with_loss(0xFA17, 0.04).jitter(SimTime::from_millis(25));
        let mut sim = DhtSim::with_faults(
            &ring,
            ProtoConfig::default(),
            |a, b| {
                if a == b {
                    SimTime::ZERO
                } else {
                    SimTime::from_millis(40)
                }
            },
            plan,
        );
        sim.set_tracer(Tracer::ring(1 << 15));
        sim.run_until(SimTime::from_secs(30));
        sim.kill(7);
        sim.run_until(SimTime::from_secs(120));
        to_json_lines(&sim.take_trace().expect("ring tracer owns its records"))
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same-seed DHT traces diverged");
    assert!(a.contains("DhtHeartbeat"));
    assert!(
        a.contains("DhtExpel"),
        "killing a node must surface an expulsion event"
    );
}

#[test]
fn untraced_market_outcome_is_unaffected_by_the_instrumentation() {
    // The zero-cost contract, end to end: a run with no tracer attached
    // must produce exactly the stats of a traced run (the trace records
    // are observation, never perturbation).
    let run = |traced: bool| {
        let pool = ResourcePool::build(
            &PoolConfig {
                net: NetworkConfig {
                    num_hosts: 300,
                    ..NetworkConfig::default()
                },
                coord_rounds: 4,
                ..PoolConfig::default()
            },
            31,
        );
        let mut faults = simcore::FaultPlan::none();
        for h in (0..300u64).step_by(11) {
            faults = faults.crash_forever(h, SimTime::from_secs(700 + h));
        }
        let cfg = MarketConfig {
            sessions: 6,
            member_size: 12,
            horizon: SimTime::from_secs(1800),
            warmup: SimTime::from_secs(300),
            faults,
            ..MarketConfig::default()
        };
        let mut sim = MarketSim::new(pool, cfg, 31);
        if traced {
            sim.set_tracer(Tracer::ring(1 << 16));
        }
        sim.run_full().0
    };
    let plain = run(false);
    let traced = run(true);
    assert!(plain.trace.is_empty());
    assert!(!traced.trace.is_empty());
    assert_eq!(plain.plans, traced.plans);
    assert_eq!(plain.crash_repairs, traced.crash_repairs);
    assert_eq!(plain.lapsed_lease_degrees, traced.lapsed_lease_degrees);
    assert_eq!(plain.leaked_degrees, traced.leaked_degrees);
    for p in 1..=3u8 {
        assert_eq!(
            plain.class(p).improvement.mean(),
            traced.class(p).improvement.mean()
        );
        assert_eq!(plain.class(p).preemptions, traced.class(p).preemptions);
    }
    // And the metrics adapter sees the same numbers either way.
    let mut ma = MetricsRegistry::new();
    let mut mb = MetricsRegistry::new();
    plain.publish_metrics(&mut ma);
    traced.publish_metrics(&mut mb);
    assert_eq!(ma.to_json_lines(), mb.to_json_lines());
}

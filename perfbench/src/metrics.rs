//! The metric catalog: every name the benchmark prints, its unit, which
//! direction is better, the layer it measures and the end-to-end metric
//! and workload it should move. `BENCHMARK.json` lists the same names; the
//! self-test checks the two agree.

use crate::spans::EVENT_KINDS;

#[derive(Clone, Copy, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Def {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub layer: &'static str,
    pub moves: &'static str,
}

use Better::{Higher, Lower};

type Row = (
    &'static str,
    &'static str,
    Better,
    &'static str,
    &'static str,
);

fn defs(rows: &[Row]) -> Vec<Def> {
    rows.iter()
        .map(|&(name, unit, better, layer, moves)| Def {
            name: name.to_string(),
            unit,
            better,
            layer,
            moves,
        })
        .collect()
}

const E2E: &str = "end-to-end";

/// End-to-end metrics, measured with tracing off.
#[rustfmt::skip]
pub fn end_to_end() -> Vec<Def> {
    defs(&[
        ("setup_s", "s", Lower, E2E, "ResourcePool::build + MarketSim::new (median)"),
        ("peak_rss_mb", "MiB", Lower, E2E, "peak RSS after set-up and one run per instance"),
        ("height_ratio_mean", "ratio", Lower, E2E, "1 - improvement, all classes"),
        ("height_ratio_p1", "ratio", Lower, E2E, "1 - improvement, priority 1"),
        ("delivery_ratio", "ratio", Higher, E2E, "mean per detection round; 1 without faults"),
        ("ops_ok_frac", "ratio", Higher, E2E, "1 - (audit violations + sessions lost) / plans"),
    ])
}

const HOST: &str = "host time of the whole run; too noisy on a shared host for a bound";
const TIERED: &str = "wall_per_sim_hour_s, plans_per_s on tiered_16k; not fig10_market";
const PLANNER: &str = "wall_per_sim_hour_s on fig10_market, then faulted_multipath_ops";
const FAULTED: &str = "wall_per_sim_hour_s, plans_per_s on faulted_multipath_ops";
const DISCOVERY: &str = "wall_per_sim_hour_s on faulted_multipath_ops and tiered_16k";
const REPAIR: &str = "wall_per_sim_hour_s, delivery_ratio on faulted_multipath_ops";
const OPS: &str = "wall_per_sim_hour_s on faulted_multipath_ops";
const EVERY: &str = "wall_per_sim_hour_s on every workload";
const REPAIR_LAYER: &str = "alm::dynamic via pool::market";

/// Per-layer metrics, from the traced run.
#[rustfmt::skip]
pub fn per_layer() -> Vec<Def> {
    let mut v = defs(&[
        ("wall_per_sim_hour_s", "s", Lower, "market", HOST),
        ("plans_per_s", "1/s", Higher, "market", HOST),
        ("improvement_mean", "ratio", Higher, "market", "height_ratio_mean"),
        ("improvement_p1", "ratio", Higher, "market", "height_ratio_p1"),
        ("oracle.promote_ms", "ms", Lower, "oracle", TIERED),
        ("oracle.lookup_ns", "ns", Lower, "oracle", TIERED),
        ("oracle.promotions", "count", Lower, "oracle", TIERED),
        ("oracle.evictions", "count", Lower, "oracle", TIERED),
        ("oracle.hot_hit_frac", "ratio", Higher, "oracle", TIERED),
        ("oracle.resident_mb", "MiB", Lower, "oracle", "peak_rss_mb on tiered_16k"),
        ("alm.staged_plan_ms.p50", "ms", Lower, "alm", PLANNER),
        ("alm.staged_plan_ms.p99", "ms", Lower, "alm", PLANNER),
        ("alm.adjust_ms", "ms", Lower, "alm", PLANNER),
        ("alm.amcast_ms", "ms", Lower, "alm", PLANNER),
        ("alm.baseline_ms", "ms", Lower, "alm", PLANNER),
        ("alm.relaxations", "count", Lower, "alm", PLANNER),
        ("alm.relaxations_per_plan", "count", Lower, "alm", PLANNER),
        ("pool.plan_ms.p50", "ms", Lower, "pool", FAULTED),
        ("pool.plan_ms.p99", "ms", Lower, "pool", FAULTED),
        ("pool.candidates_ms", "ms", Lower, "pool", "wall_per_sim_hour_s on fig10_market"),
        ("pool.reserve_us", "us", Lower, "pool", FAULTED),
        ("pool.release_us", "us", Lower, "pool", FAULTED),
        ("pool.renew_us", "us", Lower, "pool", FAULTED),
        ("pool.expire_leases_us", "us", Lower, "pool", FAULTED),
        ("pool.standby_plan_ms", "ms", Lower, "pool", FAULTED),
        ("pool.helper_failures", "count", Lower, "pool", FAULTED),
        ("pool.preemptions", "count", Lower, "pool", FAULTED),
        ("pool.reserve_success_frac", "ratio", Higher, "pool", FAULTED),
        ("somo.snapshot_report_ms", "ms", Lower, "somo", DISCOVERY),
        ("query.build_ms", "ms", Lower, "query", DISCOVERY),
        ("query.refresh_ms", "ms", Lower, "query", DISCOVERY),
        ("query.top_k_us", "us", Lower, "query", DISCOVERY),
        ("query.maintenance_bytes", "bytes", Lower, "query", DISCOVERY),
        ("query.traffic_bytes", "bytes", Lower, "query", DISCOVERY),
        ("repair.reattach_ms", "ms", Lower, REPAIR_LAYER, REPAIR),
        ("repair.crash_repairs", "count", Lower, REPAIR_LAYER, REPAIR),
        ("repair.retries", "count", Lower, REPAIR_LAYER, REPAIR),
        ("repair.gave_up", "count", Lower, REPAIR_LAYER, REPAIR),
        ("repair.tree_failovers", "count", Lower, REPAIR_LAYER, REPAIR),
        ("repair.trees_rebuilt", "count", Lower, REPAIR_LAYER, REPAIR),
        ("audit.sample_ms", "ms", Lower, "simcore.audit", OPS),
        ("audit.samples", "count", Lower, "simcore.audit", OPS),
        ("audit.checks", "count", Lower, "simcore.audit", OPS),
        ("audit.violations", "count", Lower, "simcore.audit", "ops_ok_frac"),
        ("liveops.sync_us", "us", Lower, "pool::liveops", OPS),
        ("liveops.snapshot_round_ms", "ms", Lower, "pool::liveops", OPS),
        ("liveops.query_us", "us", Lower, "pool::liveops", OPS),
        ("runstore.trace_records", "count", Lower, "runstore", OPS),
        ("runstore.deltas", "count", Lower, "runstore", OPS),
        ("runstore.snapshots", "count", Lower, "runstore", OPS),
        ("trace.overhead_frac", "ratio", Lower, "simcore::trace", OPS),
        ("market.events", "count", Lower, "market", EVERY),
    ]);
    for k in EVENT_KINDS {
        v.push(Def {
            name: format!("market.interval_ms.{k}"),
            unit: "ms",
            better: Lower,
            layer: "market",
            moves: EVERY,
        });
    }
    v.extend(defs(&[
        ("market.unattributed_ms", "ms", Lower, "market", EVERY),
        ("market.traced_wall_ms", "ms", Lower, "market", EVERY),
        ("ops_failed_frac", "ratio", Lower, "market", "ops_ok_frac"),
    ]));
    v
}

/// Whether `s` is a valid metric name: `[A-Za-z0-9_.-]+`, starting with a
/// letter or digit, at most 64 characters.
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `s` is a valid unit: 1 to 16 of letters, digits, `_ / % . -`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

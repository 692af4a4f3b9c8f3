//! Market benchmark: three market workloads, end-to-end metrics from
//! untraced runs and per-layer metrics from a traced run, with output
//! checks that fail the command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig10_market --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --selftest
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. See `README.md`.

mod layers;
mod measure;
mod metrics;
mod selftest;
mod spans;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pool::ResourcePool;
use simcore::stats::{percentile, OnlineStats};
use simcore::trace::{TraceSink, Tracer};

use measure::{Fingerprint, Rep};
use spans::{Intervals, StampSink};
use workload::{Kind, Size, Workload};

/// Set-up repetitions per instance and untraced run; `setup_s` is their
/// median.
const SETUP_REPS: usize = 3;

/// Market runs per instance and invocation, at the least.
const MIN_REPS: usize = 2;

/// What one invocation measured.
pub struct Report {
    pub workload: Kind,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, &'static str, f64)>,
    pub errors: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The run's provenance: workload, seed, cores and compiler.
    pub fn meta(&self) -> String {
        format!(
            "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"cores\": {}, \"rustc\": \"{}\"}}}}",
            self.workload.name(),
            self.seed,
            u8::from(self.trace),
            cores(),
            env!("PERFBENCH_RUSTC")
        )
    }
}

fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5).expect("at least one sample")
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Failed operations of one market run: audit violations plus sessions
/// lost to a root crash.
fn failures(rep: &Rep) -> u64 {
    rep.outcome.audit.violations.len() as u64 + rep.outcome.sessions_lost()
}

/// Run one workload and measure it.
pub fn run(kind: Kind, size: Size, seed: u64, seconds: u64, trace: bool) -> Report {
    let w = Workload::generate(kind, size, seed);
    let mut report = Report {
        workload: kind,
        seed,
        trace,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        errors: Vec::new(),
        notes: Vec::new(),
    };
    let budget = Duration::from_secs(seconds);
    if trace {
        traced(&w, budget, &mut report);
    } else {
        untraced(&w, budget, &mut report);
    }
    for (name, _, value) in &report.metrics {
        if !value.is_finite() {
            report
                .errors
                .push(format!("metric {name} is not finite: {value}"));
        }
    }
    report
}

fn untraced(w: &Workload, budget: Duration, report: &mut Report) {
    let (setup, pristine) = measure::setup(w, SETUP_REPS);
    let (reps, rss) = measure::run_for(w, &pristine, budget, MIN_REPS);
    report.errors.extend(measure::check_reps(&reps));
    // Sums over the instances. Each instance's operations count once:
    // its repetitions reproduce them exactly (checked above), and counting
    // them again would make the totals depend on how many fit in the budget.
    let inst = measure::firsts(&reps, pristine.len());
    let plans: u64 = inst.iter().map(|r| r.outcome.plans).sum();
    let failed: u64 = inst.iter().map(|r| failures(r)).sum();
    report.attempted = plans;
    report.failed = failed;
    let mut all = OnlineStats::new();
    let mut p1 = OnlineStats::new();
    let mut delivery = OnlineStats::new();
    for r in &inst {
        for (_, s) in r.outcome.per_class.iter() {
            all.merge(&s.improvement);
        }
        p1.merge(&r.outcome.class(1).improvement);
        delivery.merge(&r.outcome.delivery);
    }
    for r in &inst {
        let walls: Vec<f64> = reps
            .iter()
            .filter(|x| x.instance == r.instance)
            .map(|x| x.wall.as_secs_f64())
            .collect();
        report.notes.push(format!(
            "instance {}: run s {walls:.3?}, plans {}, audit violations {}, sessions lost {}",
            r.instance,
            r.outcome.plans,
            r.outcome.audit.violations.len(),
            r.outcome.sessions_lost()
        ));
    }
    report.notes.push(format!("set-up s {setup:.3?}"));
    report.metrics = vec![
        ("setup_s".into(), "s", median(&setup)),
        ("peak_rss_mb".into(), "MiB", rss.unwrap_or(f64::NAN)),
        ("height_ratio_mean".into(), "ratio", 1.0 - all.mean()),
        ("height_ratio_p1".into(), "ratio", 1.0 - p1.mean()),
        (
            "delivery_ratio".into(),
            "ratio",
            if delivery.count() > 0 {
                delivery.mean()
            } else {
                1.0
            },
        ),
        (
            "ops_ok_frac".into(),
            "ratio",
            1.0 - failed as f64 / plans.max(1) as f64,
        ),
    ];
}

/// One traced market run: a stamping sink on the tracer (passing every
/// record on to the live-operations store when the workload has one).
struct TracedRun {
    rep: Rep,
    intervals: Intervals,
    records: Vec<simcore::trace::TraceRecord>,
    store: Option<runstore::StoreStats>,
}

fn traced_once(w: &Workload, pristine: &ResourcePool) -> TracedRun {
    let (mut sim, handle) = w.market(0, pristine.clone());
    let inner = handle
        .as_ref()
        .map(|h| Box::new(runstore::StoreSink::new(h.clone())) as Box<dyn TraceSink>);
    let (sink, stamps) = StampSink::new(inner);
    sim.set_tracer(Tracer::with_sink(Box::new(sink)));
    let t0 = Instant::now();
    let (outcome, pool) = std::hint::black_box(sim.run_full());
    let t1 = Instant::now();
    let stamps = stamps.borrow();
    let intervals = Intervals::of(&stamps, t0, t1);
    let records = stamps.iter().map(|(_, r)| r.clone()).collect();
    let store = handle.map(|h| h.lock().expect("run store lock poisoned").stats());
    let fingerprint = Fingerprint::of(&outcome, &pool);
    TracedRun {
        rep: Rep {
            instance: 0,
            wall: t1 - t0,
            outcome,
            fingerprint,
        },
        intervals,
        records,
        store,
    }
}

fn traced(w: &Workload, budget: Duration, report: &mut Report) {
    let (_, pools) = measure::setup(w, 1);
    let pristine = pools.into_iter().next().expect("instance 0");
    // Alternate untraced and traced runs of instance 0 for the budget; the
    // difference of their medians is the tracing overhead.
    let t0 = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut runs: Vec<TracedRun> = Vec::new();
    while runs.is_empty() || t0.elapsed() < budget {
        plain.push(measure::run_once(w, 0, &pristine));
        runs.push(traced_once(w, &pristine));
    }
    report.errors.extend(measure::check_reps(&plain));
    for (i, r) in runs.iter().enumerate() {
        if r.rep.fingerprint != plain[0].fingerprint {
            report.errors.push(format!(
                "traced run {i} diverged from the untraced run: {:?} vs {:?}",
                r.rep.fingerprint, plain[0].fingerprint
            ));
        }
        if !r.intervals.balanced() {
            report.errors.push(format!(
                "traced run {i}: intervals do not add up to its wall time"
            ));
        }
        if let Some(st) = &r.store {
            if st.trace_appended != r.records.len() as u64 {
                report.errors.push(format!(
                    "traced run {i}: store holds {} trace records, the stamping sink saw {}",
                    st.trace_appended,
                    r.records.len()
                ));
            }
        }
    }
    let plain_walls: Vec<f64> = plain.iter().map(|r| r.wall.as_secs_f64()).collect();
    let untraced_wall = median(&plain_walls);
    // Contention on the shared host only ever adds time: the host-time
    // throughput comes from the fastest untraced run.
    let fastest = plain_walls.iter().copied().fold(f64::INFINITY, f64::min);
    let traced_wall = median(
        &runs
            .iter()
            .map(|r| r.rep.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let last = runs.last().expect("at least one traced run");
    let out = &last.rep.outcome;
    // Every run replays instance 0 exactly (checked above); its operations
    // count once.
    report.attempted = plain[0].outcome.plans;
    report.failed = failures(&plain[0]);

    let (spans, tally) = layers::Replay::new(w, &pristine).run(&last.records);
    write_spans(w.kind, report.seed, &report.meta(), &spans, &last.intervals);

    let mean_ms = |name: &str| {
        let d = spans.durations_ms(name);
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64
        }
    };
    let pct_ms = |name: &str, q: f64| percentile(&spans.durations_ms(name), q).unwrap_or(0.0);
    let total_ms = |name: &str| spans.durations_ms(name).iter().sum::<f64>();
    let tiers = out.oracle_tiers.unwrap_or_default();
    let hot_hit_frac = if tiers.total() > 0 {
        tiers.hot as f64 / tiers.total() as f64
    } else {
        1.0
    };
    let classes: Vec<&pool::market::PriorityStats> = out.per_class.iter().map(|(_, s)| s).collect();
    let booked = tally.helpers_booked + tally.helpers_refused;
    let store = last.store.unwrap_or_default();
    let plans = out.plans.max(1) as f64;
    let mib = 1024.0 * 1024.0;

    let mut all = OnlineStats::new();
    for s in &classes {
        all.merge(&s.improvement);
    }
    let mut m: Vec<(String, &'static str, f64)> = vec![
        ("wall_per_sim_hour_s".into(), "s", fastest / w.sim_hours()),
        (
            "plans_per_s".into(),
            "1/s",
            plain[0].outcome.plans as f64 / fastest,
        ),
        ("improvement_mean".into(), "ratio", all.mean()),
        (
            "improvement_p1".into(),
            "ratio",
            out.class(1).improvement.mean(),
        ),
        ("oracle.promote_ms".into(), "ms", mean_ms("oracle.promote")),
        (
            "oracle.lookup_ns".into(),
            "ns",
            total_ms("oracle.lookup") * 1e6 / tally.lookups.max(1) as f64,
        ),
        ("oracle.promotions".into(), "count", tiers.promotions as f64),
        ("oracle.evictions".into(), "count", tiers.evictions as f64),
        ("oracle.hot_hit_frac".into(), "ratio", hot_hit_frac),
        (
            "oracle.resident_mb".into(),
            "MiB",
            out.oracle_resident_bytes as f64 / mib,
        ),
        (
            "alm.staged_plan_ms.p50".into(),
            "ms",
            pct_ms("alm.staged_plan", 0.50),
        ),
        (
            "alm.staged_plan_ms.p99".into(),
            "ms",
            pct_ms("alm.staged_plan", 0.99),
        ),
        ("alm.adjust_ms".into(), "ms", mean_ms("alm.adjust")),
        ("alm.amcast_ms".into(), "ms", mean_ms("alm.amcast")),
        ("alm.baseline_ms".into(), "ms", mean_ms("alm.baseline")),
        (
            "alm.relaxations".into(),
            "count",
            out.planner_relaxations as f64,
        ),
        (
            "alm.relaxations_per_plan".into(),
            "count",
            out.planner_relaxations as f64 / plans,
        ),
        ("pool.plan_ms.p50".into(), "ms", pct_ms("pool.plan", 0.50)),
        ("pool.plan_ms.p99".into(), "ms", pct_ms("pool.plan", 0.99)),
        (
            "pool.candidates_ms".into(),
            "ms",
            mean_ms("pool.candidates"),
        ),
        (
            "pool.reserve_us".into(),
            "us",
            mean_ms("pool.reserve") * 1e3,
        ),
        (
            "pool.release_us".into(),
            "us",
            mean_ms("pool.release") * 1e3,
        ),
        ("pool.renew_us".into(), "us", mean_ms("pool.renew") * 1e3),
        (
            "pool.expire_leases_us".into(),
            "us",
            mean_ms("pool.expire_leases") * 1e3,
        ),
        (
            "pool.standby_plan_ms".into(),
            "ms",
            mean_ms("pool.standby_plan"),
        ),
        (
            "pool.helper_failures".into(),
            "count",
            classes.iter().map(|s| s.helper_failures).sum::<u64>() as f64,
        ),
        (
            "pool.preemptions".into(),
            "count",
            classes.iter().map(|s| s.preemptions).sum::<u64>() as f64,
        ),
        (
            "pool.reserve_success_frac".into(),
            "ratio",
            if booked > 0 {
                tally.helpers_booked as f64 / booked as f64
            } else {
                1.0
            },
        ),
        (
            "somo.snapshot_report_ms".into(),
            "ms",
            mean_ms("somo.snapshot_report"),
        ),
        ("query.build_ms".into(), "ms", mean_ms("query.build")),
        ("query.refresh_ms".into(), "ms", mean_ms("query.refresh")),
        ("query.top_k_us".into(), "us", mean_ms("query.top_k") * 1e3),
        (
            "query.maintenance_bytes".into(),
            "bytes",
            out.query_maintenance.bytes as f64,
        ),
        (
            "query.traffic_bytes".into(),
            "bytes",
            out.query_traffic.bytes as f64,
        ),
        (
            "repair.reattach_ms".into(),
            "ms",
            mean_ms("repair.reattach"),
        ),
        (
            "repair.crash_repairs".into(),
            "count",
            out.crash_repairs as f64,
        ),
        (
            "repair.retries".into(),
            "count",
            out.crash_repair_retries as f64,
        ),
        (
            "repair.gave_up".into(),
            "count",
            out.crash_repair_gave_up as f64,
        ),
        (
            "repair.tree_failovers".into(),
            "count",
            out.tree_failovers as f64,
        ),
        (
            "repair.trees_rebuilt".into(),
            "count",
            out.trees_rebuilt as f64,
        ),
        ("audit.sample_ms".into(), "ms", mean_ms("audit.sample")),
        ("audit.samples".into(), "count", out.audit.samples as f64),
        ("audit.checks".into(), "count", out.audit.checks as f64),
        (
            "audit.violations".into(),
            "count",
            out.audit.violations.len() as f64,
        ),
        (
            "liveops.sync_us".into(),
            "us",
            mean_ms("liveops.sync") * 1e3,
        ),
        (
            "liveops.snapshot_round_ms".into(),
            "ms",
            mean_ms("liveops.snapshot_round"),
        ),
        (
            "liveops.query_us".into(),
            "us",
            mean_ms("liveops.query") * 1e3,
        ),
        (
            "runstore.trace_records".into(),
            "count",
            store.trace_appended as f64,
        ),
        (
            "runstore.deltas".into(),
            "count",
            store.delta_appended as f64,
        ),
        ("runstore.snapshots".into(), "count", store.snapshots as f64),
        (
            "trace.overhead_frac".into(),
            "ratio",
            (traced_wall - untraced_wall) / untraced_wall,
        ),
        ("market.events".into(), "count", last.records.len() as f64),
    ];
    let iv = &last.intervals;
    for (kind, ns) in &iv.by_kind_ns {
        m.push((format!("market.interval_ms.{kind}"), "ms", *ns as f64 / 1e6));
    }
    m.push((
        "market.unattributed_ms".into(),
        "ms",
        iv.unattributed_ns as f64 / 1e6,
    ));
    m.push((
        "market.traced_wall_ms".into(),
        "ms",
        iv.wall_ns as f64 / 1e6,
    ));
    m.push((
        "ops_failed_frac".into(),
        "ratio",
        failures(&last.rep) as f64 / plans,
    ));
    // Same order as the catalog.
    let order: BTreeMap<String, usize> = metrics::per_layer()
        .into_iter()
        .enumerate()
        .map(|(i, d)| (d.name, i))
        .collect();
    m.sort_by_key(|(name, _, _)| order.get(name).copied().unwrap_or(usize::MAX));
    report.notes.push(format!(
        "{} untraced + {} traced runs (median wall {:.3} s / {:.3} s); replayed {} records, {} lookups",
        plain.len(),
        runs.len(),
        untraced_wall,
        traced_wall,
        last.records.len(),
        tally.lookups
    ));
    report.metrics = m;
}

/// Write the run's provenance, the traced run's spans and its market
/// intervals as JSON lines under `perfbench/out/`.
fn write_spans(kind: Kind, seed: u64, meta: &str, spans: &spans::Spans, iv: &Intervals) {
    use std::io::Write;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{seed}-spans.jsonl", kind.name()));
    let res = std::fs::create_dir_all(&dir).and_then(|_| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(f, "{meta}")?;
        spans.write_jsonl(&mut f)?;
        for (kind, ns) in &iv.by_kind_ns {
            writeln!(f, "{{\"interval\":\"{kind}\",\"ns\":{ns}}}")?;
        }
        writeln!(
            f,
            "{{\"interval\":\"unattributed\",\"ns\":{}}}",
            iv.unattributed_ns
        )?;
        writeln!(f, "{{\"traced_wall_ns\":{}}}", iv.wall_ns)?;
        f.flush()
    });
    if let Err(e) = res {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::parse(val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(val.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    measure::pin_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--selftest") => return selftest::run(),
        Some("--catalog") => {
            print_catalog();
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> | --selftest | --catalog",
                Kind::ALL.map(Kind::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = run(
        args.workload,
        Size::Full,
        args.seed,
        args.seconds,
        args.trace,
    );
    print_report(&report);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Print every metric with its unit, its better direction, the layer it
/// measures and what it should move.
fn print_catalog() {
    for (kind, defs) in [
        ("end_to_end", metrics::end_to_end()),
        ("per_layer", metrics::per_layer()),
    ] {
        for d in defs {
            println!(
                "{kind}\t{}\t{}\t{}\t{}\t{}",
                d.name,
                d.unit,
                d.better.as_str(),
                d.layer,
                d.moves
            );
        }
    }
}

pub fn print_report(r: &Report) {
    for n in &r.notes {
        println!("# {n}");
    }
    for (name, unit, value) in &r.metrics {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    for e in &r.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", r.meta());
    println!("{}", r.json());
}

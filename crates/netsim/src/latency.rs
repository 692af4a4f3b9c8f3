//! The exact host latency oracle and the [`LatencyModel`] abstraction.
//!
//! Every ALM planning algorithm in the workspace is written against
//! [`LatencyModel`], so the same code runs in the paper's two modes:
//!
//! * *Critical* — pair-wise latency known a priori via an oracle
//!   ([`LatencyMatrix`], exact shortest-path distances in factored form,
//!   or its dense [`CachedLatency`] expansion), and
//! * *Leafset* — latency predicted from network coordinates (the `coords`
//!   crate implements `LatencyModel` for its coordinate store).

use std::sync::Arc;

use crate::hosts::{HostId, HostSet};
use crate::topology::RouterNet;

/// Anything that can estimate the latency between two end hosts.
///
/// Implementations must be symmetric (`latency(a, b) == latency(b, a)`),
/// return `0` for `a == b`, and never return a negative or NaN value; the
/// provided algorithms rely on all three (the planners' relaxation pruning
/// in particular assumes `latency >= 0`, so a negative estimate would
/// silently change results rather than error).
///
/// # Precision contract
///
/// Implementations may carry either `f32`- or `f64`-precision values:
///
/// * [`LatencyMatrix`] rounds every pair to `f32` once, through
///   [`exact_entry`], and widens `f32 → f64`, which is exact (every `f32` is
///   representable as an `f64`). Expanding it into the dense `f32` kernel
///   ([`CachedLatency::from_matrix`]) is therefore value-identical — there
///   is no repeated `f64 → f32 → f64` round-trip per call site.
/// * Genuine `f64` models (e.g. coordinate stores) keep full precision.
///   Snapshotting one with [`CachedLatency::snapshot`] rounds each pair to
///   `f32` exactly once; callers that require bit-identical outputs against
///   the original model must keep using the original model.
pub trait LatencyModel {
    /// Latency estimate between hosts `a` and `b`, in milliseconds.
    fn latency_ms(&self, a: HostId, b: HostId) -> f64;

    /// Number of hosts this model covers (hosts have ids `0..num_hosts`).
    fn num_hosts(&self) -> usize;
}

impl<T: LatencyModel + ?Sized> LatencyModel for &T {
    fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
        (**self).latency_ms(a, b)
    }
    fn num_hosts(&self) -> usize {
        (**self).num_hosts()
    }
}

/// The exact `f32` latency of a host pair on distinct hosts: last hop +
/// shortest router path + last hop, summed in `f64` and rounded once.
///
/// Every exact store in the workspace — [`LatencyMatrix`], the dense
/// [`CachedLatency`] kernel, and the tiered oracle's hot rows and landmark
/// sketch — evaluates this one expression, so their entries are
/// bit-identical. The diagonal is `0` by contract and never goes through
/// here.
#[inline]
pub fn exact_entry(lh_a: f64, router_d: f32, lh_b: f64) -> f32 {
    (lh_a + f64::from(router_d) + lh_b) as f32
}

/// Exact all-pairs host latencies in **factored** form: last-hop + shortest
/// router path + last-hop, evaluated per lookup with [`exact_entry`].
///
/// Storage is one Dijkstra row per *host-attached* router, restricted to
/// the host-attached columns (`S × S` `f32`, ≈1.3 MB for the default 576
/// stub routers), plus each host's row index and last hop (12 bytes per
/// host). Nothing grows with `N²`: a 16384-host network costs about as
/// much as a 1200-host one. The storage is shared (`Arc`), so cloning a
/// matrix — or a whole network/pool that embeds one — is O(1).
///
/// A lookup costs a few loads and two `f64` adds. Planners that need the
/// fastest possible pair reads snapshot the matrix into a dense
/// [`CachedLatency`] with [`CachedLatency::from_matrix`]; the two are
/// bit-identical.
#[derive(Clone)]
pub struct LatencyMatrix {
    /// Number of distinct host-attached routers.
    s: usize,
    /// Row-major `s × s` shortest-path distances between host-attached
    /// routers, ms.
    router_dist: Arc<[f32]>,
    /// Per host: its router's row (and column) in `router_dist`.
    slot: Arc<[u32]>,
    /// Per host: last-hop latency, ms.
    last_hop: Arc<[f64]>,
}

impl LatencyMatrix {
    /// Build the oracle for all hosts of a network.
    ///
    /// Only routers that actually host endpoints are Dijkstra sources:
    /// hosts attach to stub routers, so transit routers (and any stub router
    /// without endpoints) never need a distance row of their own, and only
    /// the host-attached columns of each row are kept.
    pub fn build(net: &RouterNet, hosts: &HostSet) -> LatencyMatrix {
        let mut srcs: Vec<u32> = hosts.iter().map(|(_, h)| h.router.0).collect();
        srcs.sort_unstable();
        srcs.dedup();
        let mut slot_of = vec![u32::MAX; net.graph.len()];
        for (i, &r) in srcs.iter().enumerate() {
            slot_of[r as usize] = i as u32;
        }
        let s = srcs.len();
        let mut router_dist = Vec::with_capacity(s * s);
        for &r in &srcs {
            let row = net.graph.dijkstra(r);
            router_dist.extend(srcs.iter().map(|&c| {
                let d = row[c as usize];
                debug_assert!(d.is_finite(), "disconnected routers");
                d
            }));
        }
        LatencyMatrix {
            s,
            router_dist: router_dist.into(),
            slot: hosts
                .iter()
                .map(|(_, h)| slot_of[h.router.0 as usize])
                .collect(),
            last_hop: hosts.iter().map(|(_, h)| h.last_hop_ms).collect(),
        }
    }

    /// Bytes held by the factored storage: the router rows plus the
    /// per-host row indices and last hops.
    pub fn resident_bytes(&self) -> usize {
        self.router_dist.len() * std::mem::size_of::<f32>()
            + self.slot.len() * std::mem::size_of::<u32>()
            + self.last_hop.len() * std::mem::size_of::<f64>()
    }

    /// Host `a`'s router row in `router_dist`.
    #[inline]
    fn row(&self, a: usize) -> &[f32] {
        let start = self.slot[a] as usize * self.s;
        &self.router_dist[start..start + self.s]
    }
}

impl LatencyModel for LatencyMatrix {
    #[inline]
    fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
        let (a, b) = (a.idx(), b.idx());
        if a == b {
            return 0.0;
        }
        let router_d = self.row(a)[self.slot[b] as usize];
        f64::from(exact_entry(self.last_hop[a], router_d, self.last_hop[b]))
    }

    #[inline]
    fn num_hosts(&self) -> usize {
        self.slot.len()
    }
}

/// A dense, monomorphized latency kernel: any [`LatencyModel`] snapshotted
/// into a row-major `f32` matrix so planner inner loops pay one array load
/// per pair instead of whatever the source model computes.
///
/// Two constructions with different precision guarantees (see the
/// [`LatencyModel`] precision contract):
///
/// * [`CachedLatency::from_matrix`] expands a factored [`LatencyMatrix`]
///   into `n²` entries once — value-identical, safe wherever
///   bit-reproducibility matters.
/// * [`CachedLatency::snapshot`] evaluates an arbitrary model once per pair
///   and rounds to `f32` — a fast approximation of `f64` models, *not*
///   value-identical to them.
#[derive(Clone)]
pub struct CachedLatency {
    n: usize,
    dist: Arc<[f32]>,
}

impl std::fmt::Debug for CachedLatency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The matrix itself is n² entries — print its shape, not its body.
        f.debug_struct("CachedLatency").field("n", &self.n).finish()
    }
}

impl CachedLatency {
    /// Expand a factored matrix into the dense kernel: `n²` entries
    /// written once, straight into the shared allocation. Value-identical
    /// to the source — both evaluate [`exact_entry`] on the same inputs,
    /// and widening `f32 → f64` is exact.
    pub fn from_matrix(m: &LatencyMatrix) -> CachedLatency {
        let n = m.num_hosts();
        let mut dist = Arc::<[f32]>::new_uninit_slice(n * n);
        let cells = Arc::get_mut(&mut dist).expect("fresh allocation is unshared");
        for (a, out) in cells.chunks_exact_mut(n.max(1)).enumerate() {
            let row = m.row(a);
            let lh_a = m.last_hop[a];
            for (b, cell) in out.iter_mut().enumerate() {
                cell.write(if a == b {
                    0.0
                } else {
                    exact_entry(lh_a, row[m.slot[b] as usize], m.last_hop[b])
                });
            }
        }
        CachedLatency {
            n,
            // SAFETY: the loop above wrote every one of the `n * n` cells.
            dist: unsafe { dist.assume_init() },
        }
    }

    /// Evaluate `model` for every ordered pair and store the results as
    /// `f32`. O(n²) calls, done once; quantizes genuine `f64` models.
    ///
    /// A NaN from `model` (a corrupted coordinate store, an uninitialized
    /// estimate) is rejected here with [`NanLatency`] — the quantization
    /// boundary is the one place every estimated pair flows through, so
    /// catching it here means the planners downstream never see a NaN.
    pub fn snapshot<L: LatencyModel + ?Sized>(model: &L) -> Result<CachedLatency, NanLatency> {
        let n = model.num_hosts();
        let mut dist = vec![0f32; n * n];
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    let d = model.latency_ms(HostId(a as u32), HostId(b as u32));
                    if d.is_nan() {
                        return Err(NanLatency {
                            a: HostId(a as u32),
                            b: HostId(b as u32),
                        });
                    }
                    dist[a * n + b] = d as f32;
                }
            }
        }
        Ok(CachedLatency {
            n,
            dist: dist.into(),
        })
    }
}

/// A latency model produced NaN for the given host pair — returned by
/// [`CachedLatency::snapshot`] instead of letting the poisoned value leak
/// into planner orderings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NanLatency {
    /// First host of the offending pair.
    pub a: HostId,
    /// Second host of the offending pair.
    pub b: HostId,
}

impl std::fmt::Display for NanLatency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "latency model returned NaN for hosts {} and {}",
            self.a.0, self.b.0
        )
    }
}

impl std::error::Error for NanLatency {}

impl From<&LatencyMatrix> for CachedLatency {
    fn from(m: &LatencyMatrix) -> CachedLatency {
        CachedLatency::from_matrix(m)
    }
}

impl LatencyModel for CachedLatency {
    #[inline]
    fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
        let i = a.idx() * self.n + b.idx();
        debug_assert!(i < self.dist.len(), "host id out of matrix range");
        // SAFETY: ids are below `num_hosts` by the model contract; debug
        // builds assert the bound.
        f64::from(unsafe { *self.dist.get_unchecked(i) })
    }

    #[inline]
    fn num_hosts(&self) -> usize {
        self.n
    }
}

thread_local! {
    static LATENCY_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Zero the current thread's [`Counted`] call counter.
pub fn reset_latency_calls() {
    LATENCY_CALLS.with(|c| c.set(0));
}

/// `latency_ms` evaluations made through [`Counted`] on this thread since
/// the last [`reset_latency_calls`].
pub fn latency_calls() -> u64 {
    LATENCY_CALLS.with(|c| c.get())
}

/// Instrumentation wrapper: forwards to the inner model and counts every
/// `latency_ms` evaluation in a thread-local tally (the perf harness's
/// "latency calls" column). Not meant for production paths — the counter
/// bump is cheap but not free.
pub struct Counted<L>(pub L);

impl<L: LatencyModel> LatencyModel for Counted<L> {
    #[inline]
    fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
        LATENCY_CALLS.with(|c| c.set(c.get() + 1));
        self.0.latency_ms(a, b)
    }

    #[inline]
    fn num_hosts(&self) -> usize {
        self.0.num_hosts()
    }
}

/// A planner's-eye latency model: pairs inside a *measured set* (e.g. a
/// session's members, who ping each other directly — O(m²) probes for a
/// 20-member session is nothing) use real measurements, while any pair
/// involving an outside host (the huge helper candidate list from SOMO)
/// falls back to an estimate such as network coordinates.
///
/// This is exactly the paper's *Leafset* algorithm family: "the one used
/// the leafset estimation for **vicinity judgment**" — coordinates judge
/// helper vicinity; they do not replace the members' own measurements.
pub struct MeasuredSetLatency<'a, M: LatencyModel, E: LatencyModel> {
    measured: std::collections::HashSet<HostId>,
    oracle: &'a M,
    estimate: &'a E,
}

impl<'a, M: LatencyModel, E: LatencyModel> MeasuredSetLatency<'a, M, E> {
    /// A model where pairs within `measured` use `oracle` and all other
    /// pairs use `estimate`.
    pub fn new(measured: impl IntoIterator<Item = HostId>, oracle: &'a M, estimate: &'a E) -> Self {
        MeasuredSetLatency {
            measured: measured.into_iter().collect(),
            oracle,
            estimate,
        }
    }
}

impl<M: LatencyModel, E: LatencyModel> LatencyModel for MeasuredSetLatency<'_, M, E> {
    fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
        if self.measured.contains(&a) && self.measured.contains(&b) {
            self.oracle.latency_ms(a, b)
        } else {
            self.estimate.latency_ms(a, b)
        }
    }

    fn num_hosts(&self) -> usize {
        self.oracle.num_hosts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosts::HostSet;
    use crate::topology::{RouterNet, TransitStubConfig};

    fn small() -> (RouterNet, HostSet) {
        let cfg = TransitStubConfig {
            transit_domains: 2,
            transit_per_domain: 3,
            stub_domains_per_transit: 2,
            routers_per_stub: 3,
            ..Default::default()
        };
        let net = RouterNet::generate(&cfg, 9);
        let hosts = HostSet::attach(&net, 50, (3.0, 8.0), 10);
        (net, hosts)
    }

    #[test]
    fn symmetric_and_zero_diagonal() {
        let (net, hosts) = small();
        let m = LatencyMatrix::build(&net, &hosts);
        for a in hosts.ids() {
            assert_eq!(m.latency_ms(a, a), 0.0);
            for b in hosts.ids() {
                assert_eq!(m.latency_ms(a, b), m.latency_ms(b, a));
            }
        }
    }

    #[test]
    fn triangle_inequality_holds_for_shortest_paths() {
        // Underlay shortest-path distances satisfy the triangle inequality
        // up to the double-counted last hop of the intermediate host: d(a,c)
        // <= d(a,b) + d(b,c) always holds because the router path through
        // b's router is a candidate path and host b adds 2*last_hop >= 0.
        let (net, hosts) = small();
        let m = LatencyMatrix::build(&net, &hosts);
        for a in hosts.ids().take(10) {
            for b in hosts.ids().take(10) {
                for c in hosts.ids().take(10) {
                    let lhs = m.latency_ms(a, c);
                    let rhs = m.latency_ms(a, b) + m.latency_ms(b, c);
                    assert!(lhs <= rhs + 1e-3, "triangle violated: {lhs} > {rhs}");
                }
            }
        }
    }

    #[test]
    fn same_stub_is_much_closer_than_cross_transit() {
        let (net, hosts) = small();
        let m = LatencyMatrix::build(&net, &hosts);
        // Find two hosts in the same stub domain and two in different
        // transit domains; same-stub pairs must be far cheaper.
        let mut same_stub = None;
        let mut cross = None;
        for (a, ha) in hosts.iter() {
            for (b, hb) in hosts.iter() {
                if a >= b {
                    continue;
                }
                if ha.router == hb.router && same_stub.is_none() {
                    same_stub = Some(m.latency_ms(a, b));
                }
                let ka = &net.kinds[ha.router.0 as usize];
                let kb = &net.kinds[hb.router.0 as usize];
                if let (
                    crate::topology::RouterKind::Stub { gateway: ga, .. },
                    crate::topology::RouterKind::Stub { gateway: gb, .. },
                ) = (ka, kb)
                {
                    if ga != gb && cross.is_none() {
                        cross = Some(m.latency_ms(a, b));
                    }
                }
            }
        }
        if let (Some(s), Some(c)) = (same_stub, cross) {
            assert!(s < c, "same-stub {s} should beat cross-gateway {c}");
        }
    }

    #[test]
    fn measured_set_routes_by_membership() {
        struct Fixed(f64);
        impl LatencyModel for Fixed {
            fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
                if a == b {
                    0.0
                } else {
                    self.0
                }
            }
            fn num_hosts(&self) -> usize {
                10
            }
        }
        let oracle = Fixed(100.0);
        let estimate = Fixed(7.0);
        let m = MeasuredSetLatency::new([HostId(0), HostId(1)], &oracle, &estimate);
        assert_eq!(m.latency_ms(HostId(0), HostId(1)), 100.0);
        assert_eq!(m.latency_ms(HostId(0), HostId(5)), 7.0);
        assert_eq!(m.latency_ms(HostId(5), HostId(6)), 7.0);
        assert_eq!(m.num_hosts(), 10);
    }

    // Sourcing Dijkstra only from host-attached routers and factoring the
    // matrix must reproduce, bit for bit, the historical dense fill from
    // every-router all-pairs distances — and so must the dense kernel
    // expanded from it. Hosts outnumber stub routers, so every case holds
    // same-router pairs; the diagonal is checked too.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn restricted_dijkstra_matches_full_all_pairs_build(
            td in 1usize..4,
            tpd in 1usize..4,
            sdt in 1usize..3,
            rps in 1usize..4,
            extra_hosts in 1usize..50,
            lo in 0.5f64..6.0,
            width in 0.5f64..6.0,
            seed in 0u64..1_000_000,
        ) {
            let cfg = TransitStubConfig {
                transit_domains: td,
                transit_per_domain: tpd,
                stub_domains_per_transit: sdt,
                routers_per_stub: rps,
                ..Default::default()
            };
            let net = RouterNet::generate(&cfg, seed);
            let stub_routers = net.len() - net.num_transit;
            let hosts = HostSet::attach(&net, stub_routers + extra_hosts, (lo, lo + width), seed ^ 1);
            let m = LatencyMatrix::build(&net, &hosts);
            let c = CachedLatency::from_matrix(&m);
            let rd = net.graph.all_pairs();
            let n = hosts.len();
            proptest::prop_assert_eq!(m.num_hosts(), n);
            proptest::prop_assert_eq!(c.num_hosts(), n);
            let mut same_router_pairs = 0;
            for (a, ha) in hosts.iter() {
                for (b, hb) in hosts.iter() {
                    let want = if a == b {
                        0f32
                    } else {
                        let router_d = rd[ha.router.0 as usize][hb.router.0 as usize];
                        (ha.last_hop_ms + router_d as f64 + hb.last_hop_ms) as f32
                    };
                    if a != b && ha.router == hb.router {
                        same_router_pairs += 1;
                    }
                    let want = f64::from(want).to_bits();
                    proptest::prop_assert_eq!(m.latency_ms(a, b).to_bits(), want);
                    proptest::prop_assert_eq!(c.latency_ms(a, b).to_bits(), want);
                }
            }
            proptest::prop_assert!(same_router_pairs > 0);
            let s = hosts.iter().map(|(_, h)| h.router).collect::<std::collections::HashSet<_>>().len();
            proptest::prop_assert!(m.resident_bytes() <= s * s * 4 + n * 12);
        }
    }

    #[test]
    fn snapshot_quantizes_f64_models_once() {
        struct Pi;
        impl LatencyModel for Pi {
            fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
                if a == b {
                    0.0
                } else {
                    std::f64::consts::PI
                }
            }
            fn num_hosts(&self) -> usize {
                4
            }
        }
        let c = CachedLatency::snapshot(&Pi).unwrap();
        let want = f64::from(std::f64::consts::PI as f32);
        assert_eq!(c.latency_ms(HostId(0), HostId(3)), want);
        assert_eq!(c.latency_ms(HostId(2), HostId(2)), 0.0);
    }

    #[test]
    fn snapshot_rejects_nan_model_with_typed_error() {
        struct Poisoned;
        impl LatencyModel for Poisoned {
            fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
                if a == HostId(1) && b == HostId(2) {
                    f64::NAN
                } else {
                    1.0
                }
            }
            fn num_hosts(&self) -> usize {
                4
            }
        }
        let err = CachedLatency::snapshot(&Poisoned).unwrap_err();
        assert_eq!(
            err,
            NanLatency {
                a: HostId(1),
                b: HostId(2)
            }
        );
        assert!(err.to_string().contains("NaN"));
    }

    #[test]
    fn counted_wrapper_tallies_calls() {
        let (net, hosts) = small();
        let m = Counted(LatencyMatrix::build(&net, &hosts));
        reset_latency_calls();
        let _ = m.latency_ms(HostId(0), HostId(1));
        let _ = m.latency_ms(HostId(1), HostId(2));
        assert_eq!(latency_calls(), 2);
        reset_latency_calls();
        assert_eq!(latency_calls(), 0);
    }
}

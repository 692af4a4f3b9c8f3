//! GNP: landmark-based network coordinates (the Figure 4 baseline).
//!
//! GNP first solves the coordinates of a small set of well-distributed
//! *landmark* hosts from their measured pairwise latencies, then lets every
//! other host solve its own coordinate against the landmarks. Both phases
//! minimize the same absolute-error objective the paper uses,
//! `E = Σ |predicted − measured|`, with Nelder–Mead.
//!
//! The landmark phase is solved by block coordinate descent: several sweeps
//! in which each landmark's coordinate is re-optimized with the others held
//! fixed. This avoids one huge (landmarks × dim)-dimensional simplex, which
//! Nelder–Mead handles poorly, and converges in a handful of sweeps.

use netsim::{HostId, LatencyModel};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::simplex::{minimize, SimplexOptions};
use crate::space::{Coord, CoordStore, DEFAULT_DIM};

/// Configuration of a GNP run.
#[derive(Clone, Debug)]
pub struct GnpConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Number of landmark (infrastructure) hosts.
    pub landmarks: usize,
    /// Coordinate-descent sweeps over the landmark set.
    pub sweeps: usize,
    /// Bounded multiplicative measurement noise (0.0 = exact probes).
    pub noise: f64,
    /// Simplex budget for each per-host minimization.
    pub simplex: SimplexOptions,
}

impl Default for GnpConfig {
    fn default() -> Self {
        GnpConfig {
            dim: DEFAULT_DIM,
            landmarks: 16,
            sweeps: 8,
            noise: 0.0,
            simplex: SimplexOptions {
                initial_step: 50.0,
                tolerance: 0.1,
                max_evals: 600,
            },
        }
    }
}

/// The GNP solver.
pub struct GnpSolver {
    cfg: GnpConfig,
}

impl GnpSolver {
    /// A solver with the given configuration.
    pub fn new(cfg: GnpConfig) -> GnpSolver {
        GnpSolver { cfg }
    }

    /// Solve coordinates for every host covered by `oracle`.
    ///
    /// `oracle` provides "measured" latencies (perturbed by `cfg.noise`);
    /// landmark selection and all randomness derive from `seed`.
    pub fn solve(&self, oracle: &impl LatencyModel, seed: u64) -> CoordStore {
        let n = oracle.num_hosts();
        let lm_count = self.cfg.landmarks.min(n);
        assert!(lm_count >= 2, "GNP needs at least two landmarks");
        let mut rng = StdRng::seed_from_u64(seed);

        // Pick landmarks uniformly at random ("well-distributed" in
        // expectation on a transit-stub net).
        let mut all: Vec<u32> = (0..n as u32).collect();
        all.shuffle(&mut rng);
        let landmarks: Vec<HostId> = all[..lm_count].iter().copied().map(HostId).collect();
        self.solve_landmarked(oracle, &landmarks, &mut rng)
    }

    /// Like [`GnpSolver::solve`], but with a caller-chosen landmark set
    /// (`cfg.landmarks` is ignored). This lets a partial oracle drive
    /// the fit: GNP only ever measures landmark↔landmark and
    /// host↔landmark pairs, so a model that knows just those — e.g. a
    /// landmark distance sketch — suffices, and coordinates can be
    /// solved at any N without a dense matrix.
    pub fn solve_with_landmarks(
        &self,
        oracle: &impl LatencyModel,
        landmarks: &[HostId],
        seed: u64,
    ) -> CoordStore {
        assert!(landmarks.len() >= 2, "GNP needs at least two landmarks");
        let mut rng = StdRng::seed_from_u64(seed);
        self.solve_landmarked(oracle, landmarks, &mut rng)
    }

    fn solve_landmarked(
        &self,
        oracle: &impl LatencyModel,
        landmarks: &[HostId],
        rng: &mut StdRng,
    ) -> CoordStore {
        let n = oracle.num_hosts();
        let lm_count = landmarks.len();

        // Measured landmark-to-landmark latencies.
        let mut lm_meas = vec![vec![0.0f64; lm_count]; lm_count];
        for i in 0..lm_count {
            for j in (i + 1)..lm_count {
                let m = measure(
                    oracle,
                    landmarks[i],
                    landmarks[j],
                    self.cfg.noise,
                    &mut *rng,
                );
                lm_meas[i][j] = m;
                lm_meas[j][i] = m;
            }
        }

        // Landmark phase: random init scaled to the measured diameter, then
        // block coordinate descent.
        let scale = lm_meas
            .iter()
            .flat_map(|r| r.iter().copied())
            .fold(0.0f64, f64::max)
            .max(1.0);
        let mut lm_coords: Vec<Coord> = (0..lm_count)
            .map(|_| random_coord(self.cfg.dim, scale / 2.0, &mut *rng))
            .collect();
        for _ in 0..self.cfg.sweeps {
            for i in 0..lm_count {
                let objective = |p: &[f64]| {
                    let c = Coord::from_slice(p);
                    let mut e = 0.0;
                    for j in 0..lm_count {
                        if j != i {
                            e += (c.distance(&lm_coords[j]) - lm_meas[i][j]).abs();
                        }
                    }
                    e
                };
                let r = minimize(objective, lm_coords[i].as_slice(), self.cfg.simplex);
                lm_coords[i] = r.point;
            }
        }

        // Host phase: every host (landmarks keep their solved coordinates)
        // minimizes against the landmarks.
        let mut store = CoordStore::zeros(n, self.cfg.dim);
        for (i, &lm) in landmarks.iter().enumerate() {
            store.set(lm, lm_coords[i]);
        }
        for h in (0..n as u32).map(HostId) {
            if landmarks.contains(&h) {
                continue;
            }
            let meas: Vec<f64> = landmarks
                .iter()
                .map(|&lm| measure(oracle, h, lm, self.cfg.noise, &mut *rng))
                .collect();
            let objective = |p: &[f64]| {
                let c = Coord::from_slice(p);
                meas.iter()
                    .zip(&lm_coords)
                    .map(|(&m, lc)| (c.distance(lc) - m).abs())
                    .sum()
            };
            // Start from the centroid of the landmarks — a sane initial
            // guess that keeps the simplex in the populated region.
            let mut start = vec![0.0; self.cfg.dim];
            for lc in &lm_coords {
                for (s, &x) in start.iter_mut().zip(lc.as_slice()) {
                    *s += x;
                }
            }
            for s in start.iter_mut() {
                *s /= lm_count as f64;
            }
            let r = minimize(objective, &start, self.cfg.simplex);
            store.set(h, r.point);
        }
        store
    }
}

/// One latency "measurement": the oracle value perturbed by bounded
/// multiplicative noise.
pub(crate) fn measure(
    oracle: &impl LatencyModel,
    a: HostId,
    b: HostId,
    noise: f64,
    rng: &mut StdRng,
) -> f64 {
    let truth = oracle.latency_ms(a, b);
    if noise == 0.0 {
        truth
    } else {
        truth * (1.0 + noise * (2.0 * rng.random::<f64>() - 1.0))
    }
}

pub(crate) fn random_coord(dim: usize, scale: f64, rng: &mut StdRng) -> Coord {
    let v: Vec<f64> = (0..dim)
        .map(|_| scale * (2.0 * rng.random::<f64>() - 1.0))
        .collect();
    Coord::from_slice(&v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{random_pairs, relative_error_cdf};
    use netsim::{Network, NetworkConfig};

    fn small_net() -> Network {
        Network::generate(
            &NetworkConfig {
                transit_domains: 2,
                transit_per_domain: 3,
                stub_domains_per_transit: 2,
                routers_per_stub: 3,
                num_hosts: 120,
                ..NetworkConfig::default()
            },
            21,
        )
    }

    #[test]
    fn gnp_embeds_transit_stub_reasonably() {
        let net = small_net();
        let store = GnpSolver::new(GnpConfig {
            landmarks: 16,
            sweeps: 5,
            ..Default::default()
        })
        .solve(&net.latency, 3);
        let pairs = random_pairs(net.num_hosts(), 800, 5);
        let cdf = relative_error_cdf(&net.latency, &store, &pairs);
        let median = cdf.quantile(0.5).unwrap();
        // GNP on transit-stub nets reaches ~10-20% median relative error;
        // accept anything clearly better than "no information".
        assert!(median < 0.35, "median relative error {median}");
    }

    #[test]
    fn more_landmarks_do_not_hurt_much() {
        let net = small_net();
        let pairs = random_pairs(net.num_hosts(), 600, 6);
        let med = |lm: usize| {
            let store = GnpSolver::new(GnpConfig {
                landmarks: lm,
                sweeps: 4,
                ..Default::default()
            })
            .solve(&net.latency, 9);
            relative_error_cdf(&net.latency, &store, &pairs)
                .quantile(0.5)
                .unwrap()
        };
        let m16 = med(16);
        let m32 = med(32);
        // The paper's point: GNP is not very sensitive to the landmark
        // count. Allow wide slack; both must be sane embeddings.
        assert!(m16 < 0.35 && m32 < 0.35, "m16={m16} m32={m32}");
    }

    #[test]
    fn deterministic_given_seed() {
        let net = small_net();
        let cfg = GnpConfig {
            landmarks: 8,
            sweeps: 2,
            ..Default::default()
        };
        let a = GnpSolver::new(cfg.clone()).solve(&net.latency, 7);
        let b = GnpSolver::new(cfg).solve(&net.latency, 7);
        for h in (0..net.num_hosts() as u32).map(HostId) {
            assert_eq!(a.get(h), b.get(h));
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_landmark() {
        let net = small_net();
        GnpSolver::new(GnpConfig {
            landmarks: 1,
            ..Default::default()
        })
        .solve(&net.latency, 0);
    }
}

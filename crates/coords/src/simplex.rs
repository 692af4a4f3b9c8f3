//! Nelder–Mead downhill simplex minimization.
//!
//! The paper's §4.1 has every node "executing downhill simplex algorithm"
//! locally on its own coordinate. This is the standard Nelder–Mead method
//! (reflection / expansion / contraction / shrink) implemented from scratch
//! on fixed-size points of up to [`MAX_DIM`] components; no external
//! optimizer crates are used and no heap allocation is made.

use crate::space::{Coord, MAX_DIM};

/// Options controlling a minimization run.
#[derive(Clone, Copy, Debug)]
pub struct SimplexOptions {
    /// Initial simplex edge length around the starting point.
    pub initial_step: f64,
    /// Stop when the best–worst objective spread falls below this.
    pub tolerance: f64,
    /// Hard cap on objective evaluations.
    pub max_evals: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            initial_step: 10.0,
            tolerance: 1e-3,
            max_evals: 2000,
        }
    }
}

/// Result of a minimization.
#[derive(Clone, Debug)]
pub struct SimplexResult {
    /// The best point found.
    pub point: Coord,
    /// Objective value at `point`.
    pub value: f64,
    /// Number of objective evaluations used.
    pub evals: usize,
}

/// A simplex vertex: the first `n` components are live.
type Vertex = [f64; MAX_DIM];

/// `a + t·(b − a)` over the first `n` components.
#[inline]
fn lerp(a: &Vertex, b: &Vertex, t: f64, n: usize) -> Vertex {
    let mut out = [0.0; MAX_DIM];
    for d in 0..n {
        out[d] = a[d] + t * (b[d] - a[d]);
    }
    out
}

/// Minimize `f` starting from `x0` with Nelder–Mead. Standard coefficients:
/// reflection α=1, expansion γ=2, contraction ρ=½, shrink σ=½.
///
/// Allocation-free: the `n + 1` vertices live in fixed `[f64; MAX_DIM]`
/// arrays and are ordered in place each iteration by a stable insertion
/// sort, which yields exactly the order a stable library sort would.
///
/// # Panics
/// If `x0` is empty or longer than [`MAX_DIM`].
pub fn minimize(
    mut f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    opts: SimplexOptions,
) -> SimplexResult {
    let n = x0.len();
    assert!(
        (1..=MAX_DIM).contains(&n),
        "simplex dimension must be 1..={MAX_DIM}, got {n}"
    );
    let mut evals = 0usize;
    let mut eval = |p: &Vertex, evals: &mut usize| {
        *evals += 1;
        f(&p[..n])
    };

    // Initial simplex: x0 plus one vertex per axis offset.
    let mut pts = [[0.0; MAX_DIM]; MAX_DIM + 1];
    for (i, p) in pts[..=n].iter_mut().enumerate() {
        p[..n].copy_from_slice(x0);
        if i > 0 {
            p[i - 1] += opts.initial_step;
        }
    }
    let mut vals = [0.0; MAX_DIM + 1];
    for i in 0..=n {
        vals[i] = eval(&pts[i], &mut evals);
    }

    let mut order = [0usize; MAX_DIM + 1];
    while evals < opts.max_evals {
        // Order vertices best → worst: stable, so ties keep index order.
        for i in 0..=n {
            let mut j = i;
            while j > 0 && vals[order[j - 1]].total_cmp(&vals[i]).is_gt() {
                order[j] = order[j - 1];
                j -= 1;
            }
            order[j] = i;
        }
        let best = order[0];
        let worst = order[n];
        let second_worst = order[n - 1];

        if (vals[worst] - vals[best]).abs() < opts.tolerance {
            break;
        }

        // Centroid of all but the worst.
        let mut centroid = [0.0; MAX_DIM];
        for &i in &order[..n] {
            for d in 0..n {
                centroid[d] += pts[i][d];
            }
        }
        for c in &mut centroid[..n] {
            *c /= n as f64;
        }

        // Reflection: centroid + 1·(centroid − worst).
        let reflected = lerp(&centroid, &pts[worst], -1.0, n);
        let fr = eval(&reflected, &mut evals);

        if fr < vals[best] {
            // Expansion: centroid + 2·(centroid − worst).
            let expanded = lerp(&centroid, &pts[worst], -2.0, n);
            let fe = eval(&expanded, &mut evals);
            if fe < fr {
                pts[worst] = expanded;
                vals[worst] = fe;
            } else {
                pts[worst] = reflected;
                vals[worst] = fr;
            }
        } else if fr < vals[second_worst] {
            pts[worst] = reflected;
            vals[worst] = fr;
        } else {
            // Contraction (outside if the reflection helped at all, inside
            // otherwise).
            let t = if fr < vals[worst] { -0.5 } else { 0.5 };
            let contracted = lerp(&centroid, &pts[worst], t, n);
            let fc = eval(&contracted, &mut evals);
            if fc < vals[worst].min(fr) {
                pts[worst] = contracted;
                vals[worst] = fc;
            } else {
                // Shrink everything toward the best vertex.
                let best_pt = pts[best];
                for &i in &order[1..=n] {
                    pts[i] = lerp(&best_pt, &pts[i], 0.5, n);
                    vals[i] = eval(&pts[i], &mut evals);
                }
            }
        }
    }

    // The first minimum, as `Iterator::min_by` picks it.
    let mut bi = 0;
    for i in 1..=n {
        if vals[i].total_cmp(&vals[bi]).is_lt() {
            bi = i;
        }
    }
    SimplexResult {
        point: Coord::from_slice(&pts[bi][..n]),
        value: vals[bi],
        evals,
    }
}

/// The original `Vec`-based Nelder–Mead, kept as the bit-exact reference
/// [`minimize`] is tested against. Returns `(point, value, evals)`.
#[cfg(test)]
pub(crate) fn minimize_reference(
    mut f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    opts: SimplexOptions,
) -> (Vec<f64>, f64, usize) {
    let n = x0.len();
    assert!(n >= 1, "cannot minimize over zero dimensions");
    let mut evals = 0usize;
    let mut eval = |p: &[f64], evals: &mut usize| {
        *evals += 1;
        f(p)
    };

    let mut pts: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    pts.push(x0.to_vec());
    for i in 0..n {
        let mut p = x0.to_vec();
        p[i] += opts.initial_step;
        pts.push(p);
    }
    let mut vals: Vec<f64> = pts.iter().map(|p| eval(p, &mut evals)).collect();

    while evals < opts.max_evals {
        let mut order: Vec<usize> = (0..=n).collect();
        order.sort_by(|&a, &b| vals[a].total_cmp(&vals[b]));
        let best = order[0];
        let worst = order[n];
        let second_worst = order[n - 1];

        if (vals[worst] - vals[best]).abs() < opts.tolerance {
            break;
        }

        let mut centroid = vec![0.0; n];
        for &i in &order[..n] {
            for d in 0..n {
                centroid[d] += pts[i][d];
            }
        }
        for c in centroid.iter_mut() {
            *c /= n as f64;
        }

        let lerp = |a: &[f64], b: &[f64], t: f64| -> Vec<f64> {
            a.iter().zip(b).map(|(&x, &y)| x + t * (y - x)).collect()
        };

        let reflected = lerp(&centroid, &pts[worst], -1.0);
        let fr = eval(&reflected, &mut evals);

        if fr < vals[best] {
            let expanded = lerp(&centroid, &pts[worst], -2.0);
            let fe = eval(&expanded, &mut evals);
            if fe < fr {
                pts[worst] = expanded;
                vals[worst] = fe;
            } else {
                pts[worst] = reflected;
                vals[worst] = fr;
            }
        } else if fr < vals[second_worst] {
            pts[worst] = reflected;
            vals[worst] = fr;
        } else {
            let t = if fr < vals[worst] { -0.5 } else { 0.5 };
            let contracted = lerp(&centroid, &pts[worst], t);
            let fc = eval(&contracted, &mut evals);
            if fc < vals[worst].min(fr) {
                pts[worst] = contracted;
                vals[worst] = fc;
            } else {
                let best_pt = pts[best].clone();
                for &i in order.iter().skip(1) {
                    pts[i] = lerp(&best_pt, &pts[i], 0.5);
                    vals[i] = eval(&pts[i], &mut evals);
                }
            }
        }
    }

    let (bi, _) = vals
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .unwrap();
    (pts[bi].clone(), vals[bi], evals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic_bowl() {
        let r = minimize(
            |p| p.iter().map(|x| (x - 3.0) * (x - 3.0)).sum(),
            &[0.0, 0.0, 0.0],
            SimplexOptions::default(),
        );
        for &x in r.point.as_slice() {
            assert!((x - 3.0).abs() < 0.05, "point {:?}", r.point);
        }
        assert!(r.value < 1e-2);
    }

    #[test]
    fn minimizes_rosenbrock_2d() {
        // Banana function: minimum at (1, 1). Nelder–Mead needs a budget.
        let rosen = |p: &[f64]| {
            let (x, y) = (p[0], p[1]);
            (1.0 - x).powi(2) + 100.0 * (y - x * x).powi(2)
        };
        let r = minimize(
            rosen,
            &[-1.2, 1.0],
            SimplexOptions {
                initial_step: 0.5,
                tolerance: 1e-10,
                max_evals: 5000,
            },
        );
        assert!((r.point.as_slice()[0] - 1.0).abs() < 0.05, "{:?}", r.point);
        assert!((r.point.as_slice()[1] - 1.0).abs() < 0.05, "{:?}", r.point);
    }

    #[test]
    fn minimizes_absolute_value_objective() {
        // The paper's E(x) is a sum of absolute differences — non-smooth.
        let target = [5.0, -2.0];
        let f = |p: &[f64]| (p[0] - target[0]).abs() + (p[1] - target[1]).abs();
        let r = minimize(f, &[0.0, 0.0], SimplexOptions::default());
        assert!((r.point.as_slice()[0] - 5.0).abs() < 0.1);
        assert!((r.point.as_slice()[1] + 2.0).abs() < 0.1);
    }

    #[test]
    fn respects_eval_budget() {
        let mut count = 0;
        let _ = minimize(
            |p| {
                count += 1;
                p[0] * p[0]
            },
            &[100.0],
            SimplexOptions {
                max_evals: 50,
                tolerance: 0.0,
                ..Default::default()
            },
        );
        // A shrink step may briefly overshoot the cap; allow the n+1 slack.
        assert!(count <= 55, "used {count} evals");
    }

    // The allocation-free `minimize` must retrace the `Vec`-based
    // reference step for step: same point, value and evaluation count, to
    // the bit, on non-smooth objectives (the leafset protocol's sum of
    // absolute errors) from random starts, dimensions and budgets.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn minimize_matches_the_vec_reference_bit_for_bit(
            dim in 1usize..(MAX_DIM + 1),
            targets in proptest::collection::vec(-200.0f64..200.0, 1..24),
            weights in proptest::collection::vec(0.0f64..300.0, 24..25),
            start in proptest::collection::vec(-100.0f64..100.0, MAX_DIM..(MAX_DIM + 1)),
            step in 0.5f64..40.0,
            tol_exp in 0u32..8,
            max_evals in 1usize..600,
        ) {
            // Each target t_j spreads into a point (t_j, t_j/2, t_j/3, ...)
            // measured at distance w_j: a small leafset-style E(x).
            let objective = |p: &[f64]| -> f64 {
                targets
                    .iter()
                    .zip(&weights)
                    .map(|(&t, &w)| {
                        let d2: f64 = p
                            .iter()
                            .enumerate()
                            .map(|(d, &x)| {
                                let diff = x - t / (d + 1) as f64;
                                diff * diff
                            })
                            .sum();
                        (d2.sqrt() - w).abs()
                    })
                    .sum()
            };
            let opts = SimplexOptions {
                initial_step: step,
                tolerance: 10f64.powi(-(tol_exp as i32)),
                max_evals,
            };
            let got = minimize(objective, &start[..dim], opts);
            let (point, value, evals) = minimize_reference(objective, &start[..dim], opts);
            proptest::prop_assert_eq!(got.evals, evals);
            proptest::prop_assert_eq!(got.value.to_bits(), value.to_bits());
            proptest::prop_assert_eq!(got.point.dim(), point.len());
            for (x, y) in got.point.as_slice().iter().zip(&point) {
                proptest::prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn ties_keep_the_reference_order() {
        // A flat objective makes every vertex tie: the stable in-place
        // ordering must pick the same best/worst vertices as a stable sort.
        let opts = SimplexOptions {
            tolerance: -1.0,
            max_evals: 60,
            ..Default::default()
        };
        let f = |p: &[f64]| (p[0] - 1.0).abs().min(3.0);
        let got = minimize(f, &[50.0, -20.0, 7.0], opts);
        let (point, value, evals) = minimize_reference(f, &[50.0, -20.0, 7.0], opts);
        assert_eq!(got.point.as_slice(), &point[..]);
        assert_eq!((got.value, got.evals), (value, evals));
    }

    #[test]
    fn one_dimension_works() {
        let r = minimize(|p| (p[0] + 7.0).powi(2), &[0.0], SimplexOptions::default());
        assert!((r.point.as_slice()[0] + 7.0).abs() < 0.05);
    }

    #[test]
    fn already_optimal_start_stays() {
        let r = minimize(
            |p| p[0] * p[0] + p[1] * p[1],
            &[0.0, 0.0],
            SimplexOptions {
                initial_step: 1.0,
                ..Default::default()
            },
        );
        assert!(r.value < 1e-2);
    }
}

//! Derivative-free optimizers for the maximum-likelihood estimators.
//!
//! The HLL MLE cardinality estimator (§1.3's "newer cardinality estimation
//! methods", Ertl 2017) maximizes a 1-D Poisson log-likelihood; the joint
//! intersection estimator maximizes a 3-D one. Golden-section handles the
//! 1-D case (the likelihoods are unimodal in log-rate); Nelder–Mead handles
//! the 3-D case.

/// Maximize a unimodal `f` over `[lo, hi]` by golden-section search.
/// Returns `(argmax, max)`.
pub fn golden_section_max<F: FnMut(f64) -> f64>(
    mut f: F,
    lo: f64,
    hi: f64,
    tol: f64,
    max_iters: u32,
) -> (f64, f64) {
    debug_assert!(lo <= hi);
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    let mut a = lo;
    let mut b = hi;
    let mut c = b - (b - a) * INV_PHI;
    let mut d = a + (b - a) * INV_PHI;
    let mut fc = f(c);
    let mut fd = f(d);
    for _ in 0..max_iters {
        if (b - a).abs() <= tol {
            break;
        }
        if fc >= fd {
            b = d;
            d = c;
            fd = fc;
            c = b - (b - a) * INV_PHI;
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + (b - a) * INV_PHI;
            fd = f(d);
        }
    }
    let x = 0.5 * (a + b);
    let fx = f(x);
    if fx >= fc && fx >= fd {
        (x, fx)
    } else if fc >= fd {
        (c, fc)
    } else {
        (d, fd)
    }
}

/// Maximize `f` over `R^n` with the Nelder–Mead simplex method.
///
/// `start` seeds the simplex; `scale` sets the initial simplex edge per
/// coordinate. Returns `(argmax, max)`. Standard reflection/expansion/
/// contraction/shrink coefficients (1, 2, 0.5, 0.5).
pub fn nelder_mead_max<F: FnMut(&[f64]) -> f64>(
    mut f: F,
    start: &[f64],
    scale: &[f64],
    tol: f64,
    max_iters: u32,
) -> (Vec<f64>, f64) {
    let n = start.len();
    assert_eq!(scale.len(), n);
    assert!(n >= 1);
    // Minimize the negation internally.
    let mut g = move |x: &[f64]| -f(x);

    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
    simplex.push((start.to_vec(), g(start)));
    for i in 0..n {
        let mut v = start.to_vec();
        v[i] += scale[i];
        let fv = g(&v);
        simplex.push((v, fv));
    }

    for _ in 0..max_iters {
        simplex.sort_by(|a, b| {
            a.1.partial_cmp(&b.1).expect("invariant: objective values are finite, never NaN")
        });
        let best = simplex[0].1;
        let worst = simplex[n].1;
        if (worst - best).abs() <= tol * (1.0 + best.abs()) {
            break;
        }
        // Centroid of all but the worst.
        let mut centroid = vec![0.0; n];
        for (v, _) in &simplex[..n] {
            for (c, &x) in centroid.iter_mut().zip(v) {
                *c += x;
            }
        }
        for c in &mut centroid {
            *c /= n as f64;
        }

        let lerp = |t: f64| -> Vec<f64> {
            centroid.iter().zip(&simplex[n].0).map(|(&c, &w)| c + t * (c - w)).collect()
        };

        let reflected = lerp(1.0);
        let fr = g(&reflected);
        if fr < simplex[0].1 {
            let expanded = lerp(2.0);
            let fe = g(&expanded);
            simplex[n] = if fe < fr { (expanded, fe) } else { (reflected, fr) };
        } else if fr < simplex[n - 1].1 {
            simplex[n] = (reflected, fr);
        } else {
            let contracted = if fr < simplex[n].1 { lerp(0.5) } else { lerp(-0.5) };
            let fc = g(&contracted);
            if fc < simplex[n].1.min(fr) {
                simplex[n] = (contracted, fc);
            } else {
                // Shrink toward the best vertex.
                let best_v = simplex[0].0.clone();
                for entry in &mut simplex[1..] {
                    for (x, &b) in entry.0.iter_mut().zip(&best_v) {
                        *x = b + 0.5 * (*x - b);
                    }
                    entry.1 = g(&entry.0);
                }
            }
        }
    }
    simplex.sort_by(|a, b| {
        a.1.partial_cmp(&b.1).expect("invariant: objective values are finite, never NaN")
    });
    let (x, fx) = simplex.swap_remove(0);
    (x, -fx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_section_finds_parabola_peak() {
        let (x, fx) = golden_section_max(|x| -(x - 3.0) * (x - 3.0) + 7.0, -10.0, 10.0, 1e-10, 200);
        assert!((x - 3.0).abs() < 1e-6, "x = {x}");
        assert!((fx - 7.0).abs() < 1e-10);
    }

    #[test]
    fn golden_section_peak_at_boundary() {
        let (x, _) = golden_section_max(|x| x, 0.0, 5.0, 1e-10, 200);
        assert!((x - 5.0).abs() < 1e-6, "x = {x}");
    }

    #[test]
    fn golden_section_log_likelihood_shape() {
        // Poisson log-likelihood in log-lambda: k·t − e^t at k = 100 peaks
        // at t = ln 100.
        let (t, _) = golden_section_max(|t| 100.0 * t - t.exp(), -5.0, 20.0, 1e-12, 300);
        assert!((t - 100f64.ln()).abs() < 1e-5, "t = {t}");
    }

    #[test]
    fn nelder_mead_quadratic_bowl_3d() {
        let target = [1.0, -2.0, 3.0];
        let (x, fx) = nelder_mead_max(
            |v| -v.iter().zip(&target).map(|(&a, &b)| (a - b) * (a - b)).sum::<f64>(),
            &[0.0, 0.0, 0.0],
            &[1.0, 1.0, 1.0],
            1e-14,
            2000,
        );
        for (got, want) in x.iter().zip(&target) {
            assert!((got - want).abs() < 1e-4, "{x:?}");
        }
        assert!(fx > -1e-7);
    }

    #[test]
    fn nelder_mead_rosenbrock_2d() {
        // Classic banana function (maximize the negation); optimum (1,1).
        let (x, _) = nelder_mead_max(
            |v| {
                let (a, b) = (v[0], v[1]);
                -((1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2))
            },
            &[-1.2, 1.0],
            &[0.5, 0.5],
            1e-15,
            5000,
        );
        assert!((x[0] - 1.0).abs() < 1e-3 && (x[1] - 1.0).abs() < 1e-3, "{x:?}");
    }

    #[test]
    fn nelder_mead_1d_degenerate() {
        let (x, _) = nelder_mead_max(|v| -(v[0] - 4.0).powi(2), &[0.0], &[1.0], 1e-14, 1000);
        assert!((x[0] - 4.0).abs() < 1e-5);
    }
}

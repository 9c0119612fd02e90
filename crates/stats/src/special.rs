//! Special mathematical functions.
//!
//! Implemented from scratch so that the workspace does not need an external
//! scientific-computing dependency: the log-gamma function (Lanczos
//! approximation), the regularized incomplete beta function (Lentz continued
//! fraction), the Student-t distribution function, and the Student-t
//! inverse. These back the confidence-interval machinery in
//! [`crate::ci`] and the posterior-predictive computations of the
//! dynamic-tree model.

/// Natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation (g = 7, n = 9) which is accurate to about
/// 1e-13 over the range used by this workspace.
///
/// # Panics
///
/// Panics if `x <= 0` (the reflection formula is intentionally not
/// implemented because no caller needs it).
///
/// # Examples
///
/// ```
/// let half_ln_pi = alic_stats::special::ln_gamma(0.5);
/// assert!((half_ln_pi - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
/// ```
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires a positive argument, got {x}");
    // Lanczos coefficients for g = 7.
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection via ln Γ(x) = ln(π / sin(πx)) - ln Γ(1 - x).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized incomplete beta function `I_x(a, b)` for `a, b > 0` and
/// `x ∈ [0, 1]`.
///
/// Evaluated with the Lentz continued-fraction expansion, using the symmetry
/// relation to keep the fraction in its rapidly converging region.
///
/// # Panics
///
/// Panics if `a <= 0`, `b <= 0`, or `x` lies outside `[0, 1]`.
fn betainc_regularized(a: f64, b: f64, x: f64) -> f64 {
    assert!(
        a > 0.0 && b > 0.0,
        "betainc requires positive shape parameters"
    );
    assert!((0.0..=1.0).contains(&x), "betainc requires x in [0, 1]");
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_continued_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b
    }
}

/// Modified Lentz evaluation of the continued fraction for the incomplete
/// beta function.
fn beta_continued_fraction(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-14;
    const TINY: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Cumulative distribution function of Student's t distribution with `df`
/// degrees of freedom.
///
/// # Panics
///
/// Panics if `df <= 0`.
fn student_t_cdf(t: f64, df: f64) -> f64 {
    assert!(df > 0.0, "degrees of freedom must be positive");
    if t.is_infinite() {
        return if t > 0.0 { 1.0 } else { 0.0 };
    }
    let x = df / (df + t * t);
    let p = 0.5 * betainc_regularized(0.5 * df, 0.5, x);
    if t > 0.0 {
        1.0 - p
    } else {
        p
    }
}

/// Inverse CDF (quantile function) of Student's t distribution with `df`
/// degrees of freedom, evaluated by monotone bisection on the distribution
/// function.
///
/// # Panics
///
/// Panics if `df <= 0` or `p` is outside the open interval `(0, 1)`.
pub fn student_t_quantile(p: f64, df: f64) -> f64 {
    assert!(df > 0.0, "degrees of freedom must be positive");
    assert!(p > 0.0 && p < 1.0, "probability must lie in (0, 1)");
    if (p - 0.5).abs() < 1e-15 {
        return 0.0;
    }
    // Bracket the root. t quantiles for p in (0,1) and df >= 1 are well within
    // +-1e8 even for tiny tail probabilities used here.
    let mut lo = -1e8;
    let mut hi = 1e8;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if student_t_cdf(mid, df) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-10 * (1.0 + hi.abs()) {
            break;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1..10u32 {
            let expected: f64 = (1..n).map(|k| (k as f64).ln()).sum();
            assert!(
                (ln_gamma(n as f64) - expected).abs() < 1e-10,
                "ln_gamma({n}) mismatch"
            );
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1.5) = sqrt(pi)/2.
        let expected = (std::f64::consts::PI.sqrt() / 2.0).ln();
        assert!((ln_gamma(1.5) - expected).abs() < 1e-12);
    }

    #[test]
    fn betainc_symmetry_and_bounds() {
        assert_eq!(betainc_regularized(2.0, 3.0, 0.0), 0.0);
        assert_eq!(betainc_regularized(2.0, 3.0, 1.0), 1.0);
        // I_x(a, b) = 1 - I_{1-x}(b, a)
        let a = 2.5;
        let b = 1.5;
        let x = 0.3;
        let lhs = betainc_regularized(a, b, x);
        let rhs = 1.0 - betainc_regularized(b, a, 1.0 - x);
        assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
    }

    #[test]
    fn betainc_uniform_case_is_identity() {
        // I_x(1, 1) = x.
        for &x in &[0.1, 0.25, 0.5, 0.75, 0.9] {
            assert!((betainc_regularized(1.0, 1.0, x) - x).abs() < 1e-10);
        }
    }

    #[test]
    fn student_t_cdf_is_symmetric() {
        for &df in &[1.0, 4.0, 34.0, 100.0] {
            for &t in &[0.5, 1.0, 2.0, 3.5] {
                let upper = student_t_cdf(t, df);
                let lower = student_t_cdf(-t, df);
                assert!((upper + lower - 1.0).abs() < 1e-10);
            }
        }
        assert!((student_t_cdf(0.0, 7.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn student_t_quantile_matches_known_values() {
        // Two-sided 95% critical values from standard t tables.
        let cases = [(4.0, 2.776), (9.0, 2.262), (34.0, 2.032), (1.0, 12.706)];
        for (df, expected) in cases {
            let q = student_t_quantile(0.975, df);
            assert!(
                (q - expected).abs() < 2e-3,
                "df={df}: got {q}, expected {expected}"
            );
        }
    }

    #[test]
    fn student_t_quantile_roundtrips_cdf() {
        for &df in &[3.0, 10.0, 34.0] {
            for &p in &[0.05, 0.3, 0.5, 0.9, 0.975] {
                let t = student_t_quantile(p, df);
                assert!((student_t_cdf(t, df) - p).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn t_converges_to_normal_for_large_df() {
        let t_q = student_t_quantile(0.975, 10_000.0);
        let n_q = 1.959_963_984_540_054; // standard normal quantile at 0.975
        assert!((t_q - n_q).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn ln_gamma_rejects_nonpositive() {
        ln_gamma(0.0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn quantile_rejects_bad_probability() {
        student_t_quantile(1.0, 5.0);
    }
}

//! Similarity measures between topic distributions.

/// Jensen–Shannon similarity `1 - JSD(p, q)` (base-2 JSD ∈ [0, 1]).
///
/// The measure used by the semantics-aware spatial keyword baselines for
/// comparing LDA topic distributions.
#[must_use]
pub fn jensen_shannon(p: &[f64], q: &[f64]) -> f64 {
    debug_assert_eq!(p.len(), q.len());
    fn kl(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .filter(|(x, _)| **x > 0.0)
            .map(|(x, y)| x * (x / y.max(f64::MIN_POSITIVE)).log2())
            .sum()
    }
    let m: Vec<f64> = p.iter().zip(q).map(|(x, y)| (x + y) / 2.0).collect();
    let jsd = 0.5 * kl(p, &m) + 0.5 * kl(q, &m);
    1.0 - jsd.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_distributions_max_similarity() {
        let p = [0.5, 0.3, 0.2];
        assert!((jensen_shannon(&p, &p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_distributions_min_similarity() {
        let p = [1.0, 0.0];
        let q = [0.0, 1.0];
        assert!(jensen_shannon(&p, &q) < 1e-9);
    }

    #[test]
    fn jensen_shannon_symmetric() {
        let p = [0.7, 0.2, 0.1];
        let q = [0.1, 0.6, 0.3];
        assert!((jensen_shannon(&p, &q) - jensen_shannon(&q, &p)).abs() < 1e-12);
    }

    #[test]
    fn closer_distributions_more_similar() {
        let p = [0.6, 0.4];
        let near = [0.55, 0.45];
        let far = [0.1, 0.9];
        assert!(jensen_shannon(&p, &near) > jensen_shannon(&p, &far));
    }
}

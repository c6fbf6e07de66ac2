//! Model catalogue: fidelity, pricing, throughput.

use concepts::FidelityProfile;

/// The models the paper uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// GPT-3.5 Turbo — tip summarization ("for its lower costs").
    Gpt35Turbo,
    /// GPT-4o — the default refinement model.
    Gpt4o,
    /// o1-mini — query generation and the SemaSK-O1 variant.
    O1Mini,
}

impl ModelKind {
    /// API-style model id string.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            ModelKind::Gpt35Turbo => "gpt-3.5-turbo",
            ModelKind::Gpt4o => "gpt-4o",
            ModelKind::O1Mini => "o1-mini",
        }
    }

    /// The model's semantic fidelity profile (drives task quality).
    #[must_use]
    pub(crate) fn fidelity(self) -> FidelityProfile {
        match self {
            ModelKind::Gpt35Turbo => FidelityProfile::gpt35_turbo(),
            ModelKind::Gpt4o => FidelityProfile::gpt4o(),
            ModelKind::O1Mini => FidelityProfile::o1_mini(),
        }
    }

    /// `(usd per 1k prompt tokens, usd per 1k completion tokens)` —
    /// ballpark public list prices at the time of the paper; only the
    /// *ratios* matter for the cost argument ("considering its higher
    /// cost, we default to GPT-4o").
    #[must_use]
    pub(crate) fn pricing_usd_per_1k(self) -> (f64, f64) {
        match self {
            ModelKind::Gpt35Turbo => (0.0005, 0.0015),
            ModelKind::Gpt4o => (0.0025, 0.0100),
            ModelKind::O1Mini => (0.0030, 0.0120),
        }
    }

    /// `(prompt tokens/sec ingestion, completion tokens/sec generation,
    /// fixed overhead ms)` for the latency simulation.
    #[must_use]
    pub fn throughput(self) -> (f64, f64, f64) {
        match self {
            ModelKind::Gpt35Turbo => (8000.0, 120.0, 250.0),
            ModelKind::Gpt4o => (6000.0, 80.0, 350.0),
            // o1-mini "thinks": slower effective generation.
            ModelKind::O1Mini => (6000.0, 45.0, 600.0),
        }
    }

    /// Simulated latency of a call in milliseconds.
    #[must_use]
    pub fn latency_ms(self, prompt_tokens: u32, completion_tokens: u32) -> f64 {
        let (in_tps, out_tps, overhead) = self.throughput();
        overhead
            + f64::from(prompt_tokens) / in_tps * 1000.0
            + f64::from(completion_tokens) / out_tps * 1000.0
    }

    /// Cost of a call in USD.
    #[must_use]
    pub fn cost_usd(self, prompt_tokens: u32, completion_tokens: u32) -> f64 {
        let (p, c) = self.pricing_usd_per_1k();
        f64::from(prompt_tokens) / 1000.0 * p + f64::from(completion_tokens) / 1000.0 * c
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refinement_call_latency_matches_paper_scale() {
        // A refinement prompt: ~10 POIs × ~150 tokens + instructions ≈
        // 1,800 prompt tokens, ~200 completion tokens. The paper reports
        // 2–3 s per query.
        let ms = ModelKind::Gpt4o.latency_ms(1800, 200);
        assert!((1_500.0..=4_000.0).contains(&ms), "got {ms}");
    }

    #[test]
    fn o1_is_slower_and_pricier_than_4o() {
        let a = ModelKind::Gpt4o.latency_ms(1500, 200);
        let b = ModelKind::O1Mini.latency_ms(1500, 200);
        assert!(b > a);
        assert!(ModelKind::O1Mini.cost_usd(1000, 1000) > ModelKind::Gpt4o.cost_usd(1000, 1000));
    }

    #[test]
    fn gpt35_is_cheapest() {
        let c35 = ModelKind::Gpt35Turbo.cost_usd(1000, 100);
        let c4o = ModelKind::Gpt4o.cost_usd(1000, 100);
        assert!(c35 < c4o);
    }

    #[test]
    fn ids_are_api_style() {
        assert_eq!(ModelKind::Gpt4o.id(), "gpt-4o");
        assert_eq!(ModelKind::Gpt4o.to_string(), "gpt-4o");
    }
}

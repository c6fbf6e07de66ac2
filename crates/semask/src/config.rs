//! System configuration.

use embed::EmbedderConfig;
use llm::ModelKind;

use crate::retrieval::PlannerConfig;

/// SemaSK configuration (paper defaults).
#[derive(Debug, Clone)]
pub struct SemaSkConfig {
    /// Query-planner configuration for the filtering stage.
    pub planner: PlannerConfig,
    /// Results to fetch in the filtering step (paper: k = 10).
    pub k: usize,
    /// HNSW beam width for the filtered ANN search (`None` = auto).
    pub ef: Option<usize>,
    /// Model used for tip summarization (paper: GPT-3.5 Turbo, "for its
    /// lower costs").
    pub summarize_model: ModelKind,
    /// Model used for refinement (paper default: GPT-4o).
    pub refine_model: ModelKind,
    /// Embedding model configuration.
    pub embedder: EmbedderConfig,
    /// Ablation: embed the raw tips instead of the LLM tip summary
    /// (the paper embeds the summary; see the `ablation` bench).
    pub embed_raw_tips: bool,
    /// Scoring tier of the vector collection: `Auto` (the default)
    /// switches to quantized-first scoring with full-precision rerank
    /// once the collection crosses [`vecdb::AUTO_QUANT_THRESHOLD`]
    /// points; `Full` opts out entirely (the escape hatch the parity
    /// suites ride); `Quantized` forces the tier with an explicit
    /// rerank factor.
    pub scoring_tier: vecdb::ScoringTier,
    /// Read nowhere: the collection stores a vector and a position per
    /// POI and no text to compress. Kept only because
    /// `ledger/src/sut.rs:232` sets it; leaves with the next benchmark
    /// PR (ROADMAP 8(d)).
    #[deprecated(note = "read nowhere: the collection keeps no payload text")]
    pub compress_payload_text: bool,
}

#[allow(deprecated)]
impl Default for SemaSkConfig {
    fn default() -> Self {
        Self {
            planner: PlannerConfig::default(),
            k: 10,
            ef: None,
            summarize_model: ModelKind::Gpt35Turbo,
            refine_model: ModelKind::Gpt4o,
            embedder: EmbedderConfig::default(),
            embed_raw_tips: false,
            scoring_tier: vecdb::ScoringTier::Auto,
            compress_payload_text: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SemaSkConfig::default();
        assert_eq!(c.k, 10);
        assert_eq!(c.refine_model, ModelKind::Gpt4o);
        assert_eq!(c.summarize_model, ModelKind::Gpt35Turbo);
        assert_eq!(c.scoring_tier, vecdb::ScoringTier::Auto);
    }
}

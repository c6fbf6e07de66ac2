//! Shared harness code for the benchmark binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's experiment index); this library holds the common
//! plumbing: building the workload, preparing cities, constructing every
//! method of Table 2, and formatting result tables.

use std::sync::Arc;

use datagen::{Workload, WorkloadConfig};
use lda::LdaConfig;
use llm::SimLlm;
use semask::baselines::{LdaRetriever, Retriever, SemaSkRetriever, TfIdfRetriever};
use semask::{prepare_city, PreparedCity, SemaSkConfig, SemaSkEngine, Variant};

/// Everything needed to evaluate all five methods on all five cities.
pub struct Harness {
    /// The generated workload.
    pub workload: Workload,
    /// Prepared cities (aligned with `workload.cities`).
    pub prepared: Vec<Arc<PreparedCity>>,
    /// The shared LLM runtime.
    pub llm: Arc<SimLlm>,
    /// The SemaSK configuration in use.
    pub config: SemaSkConfig,
}

impl Harness {
    /// Builds the harness at a POI-count scale (1.0 = the paper's 19,795
    /// POIs) with the paper's 30 queries per city.
    #[must_use]
    pub fn build(scale: f64) -> Self {
        Self::build_with(scale, SemaSkConfig::default(), 30)
    }

    /// Builds with explicit configuration.
    #[must_use]
    pub(crate) fn build_with(scale: f64, config: SemaSkConfig, queries_per_city: usize) -> Self {
        let mut wconfig = WorkloadConfig {
            scale,
            ..WorkloadConfig::default()
        };
        wconfig.queries.per_city = queries_per_city;
        let workload = Workload::build(wconfig);
        let llm = Arc::new(SimLlm::new());
        let prepared: Vec<Arc<PreparedCity>> = workload
            .cities
            .iter()
            .map(|c| Arc::new(prepare_city(c, &llm, &config).expect("prep succeeds")))
            .collect();
        Self {
            workload,
            prepared,
            llm,
            config,
        }
    }

    /// Builds a SemaSK engine for city index `i`.
    #[must_use]
    pub fn engine(&self, i: usize, variant: Variant) -> SemaSkEngine {
        SemaSkEngine::new(
            Arc::clone(&self.prepared[i]),
            Arc::clone(&self.llm),
            self.config.clone(),
            variant,
        )
    }

    /// Builds all five Table-2 methods for city index `i`, in the
    /// paper's column order: LDA, TF-IDF, SemaSK-EM, SemaSK-O1, SemaSK.
    #[must_use]
    pub fn methods(&self, i: usize) -> Vec<Box<dyn Retriever>> {
        self.methods_with_k(i, self.config.k)
    }

    /// Like [`Harness::methods`], with an explicit filtering depth `k`
    /// for the SemaSK variants (used by the k-sweep: evaluating at k = 25
    /// means fetching 25 candidates, as the paper would have).
    #[must_use]
    pub fn methods_with_k(&self, i: usize, k: usize) -> Vec<Box<dyn Retriever>> {
        let dataset = &self.prepared[i].dataset;
        let config = SemaSkConfig {
            k,
            ..self.config.clone()
        };
        let engine = |variant| {
            SemaSkEngine::new(
                Arc::clone(&self.prepared[i]),
                Arc::clone(&self.llm),
                config.clone(),
                variant,
            )
        };
        vec![
            Box::new(LdaRetriever::new(
                dataset,
                LdaConfig {
                    num_topics: 20,
                    // Classic Griffiths-Steyvers prior (alpha = 50/K): on
                    // short texts the prior swamps the data, reproducing
                    // the paper's near-random LDA baseline.
                    alpha: 2.5,
                    iterations: 100,
                    ..LdaConfig::default()
                },
            )),
            Box::new(TfIdfRetriever::new(dataset)),
            Box::new(SemaSkRetriever::new(engine(Variant::EmbeddingOnly))),
            Box::new(SemaSkRetriever::new(engine(Variant::O1))),
            Box::new(SemaSkRetriever::new(engine(Variant::Full))),
        ]
    }
}

/// One row of a Table-2-style result table.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Row label (city key or "Avg.").
    pub label: String,
    /// One score per method, in column order.
    pub scores: Vec<f64>,
}

/// Formats a Table-2-style table with the best score per row in bold
/// (terminal-style `*bold*` markers).
#[must_use]
pub fn format_table(columns: &[&str], rows: &[TableRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<6}", "City"));
    for c in columns {
        out.push_str(&format!("{c:>12}"));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("{:<6}", row.label));
        let best = row.scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for &s in &row.scores {
            let cell = if (s - best).abs() < 1e-9 {
                format!("*{s:.2}*")
            } else {
                format!("{s:.2}")
            };
            out.push_str(&format!("{cell:>12}"));
        }
        out.push('\n');
    }
    out
}

/// Scale factor from the `SEMASK_SCALE` environment variable (default
/// `default`). Benchmarks accept reduced scales for quick runs.
#[must_use]
pub fn scale_from_env(default: f64) -> f64 {
    std::env::var("SEMASK_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_table_marks_best() {
        let rows = vec![TableRow {
            label: "IN".into(),
            scores: vec![0.1, 0.5, 0.3],
        }];
        let t = format_table(&["A", "B", "C"], &rows);
        assert!(t.contains("*0.50*"));
        assert!(t.contains("0.10"));
    }

    #[test]
    fn tiny_harness_builds() {
        let h = Harness::build_with(0.01, SemaSkConfig::default(), 2);
        assert_eq!(h.prepared.len(), 5);
        assert!(h.workload.total_pois() > 100);
        let engine = h.engine(0, Variant::EmbeddingOnly);
        assert_eq!(engine.variant(), Variant::EmbeddingOnly);
    }
}

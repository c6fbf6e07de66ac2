//! LLM cost accounting across a whole SemaSK session — the economics the
//! paper's design decisions optimise (embedding pre-filtering "to limit
//! the LLM costs of the refinement step", GPT-3.5 summaries "for its
//! lower costs", GPT-4o over o1-mini "considering its higher cost").
//!
//! ```sh
//! cargo run --release --example cost_report
//! ```

use std::sync::Arc;

use llm::{ModelKind, SimLlm};
use semask::{prepare_city, SemaSkConfig, SemaSkEngine, SemaSkQuery, Variant};

fn main() {
    let city = datagen::poi::generate_city(&datagen::CITIES[3], 500, 64);
    let llm = Arc::new(SimLlm::new());
    let config = SemaSkConfig::default();

    println!(
        "== offline: data preparation ({} POIs) ==",
        city.dataset.len()
    );
    let prepared = Arc::new(prepare_city(&city, &llm, &config).expect("prep"));
    let prep_log = llm.cost_log();
    let (calls, tokens, cost) = prep_log.by_model(ModelKind::Gpt35Turbo);
    println!("gpt-3.5-turbo summaries: {calls} calls, {tokens} tokens, ${cost:.4}");

    println!("\n== online: 20 queries through each refinement model ==");
    let queries = datagen::queries::generate_queries(
        &city,
        &datagen::queries::QueryGenConfig {
            per_city: 20,
            ..Default::default()
        },
    );
    for variant in [Variant::Full, Variant::O1] {
        llm.reset_log();
        let engine = SemaSkEngine::new(
            Arc::clone(&prepared),
            Arc::clone(&llm),
            config.clone(),
            variant,
        );
        let mut latency = 0.0;
        for q in &queries {
            let out = engine
                .query(&SemaSkQuery::new(q.range, q.text.clone()))
                .expect("query");
            latency += out.latency.refinement_ms;
        }
        let log = llm.cost_log();
        let tokens: u64 = [ModelKind::Gpt35Turbo, ModelKind::Gpt4o, ModelKind::O1Mini]
            .into_iter()
            .map(|model| log.by_model(model).1)
            .sum();
        println!(
            "{:<10} {:>3} calls  {:>8} tokens  ${:>8.4}  avg latency {:>6.0} ms",
            engine.variant().label(),
            log.num_calls(),
            tokens,
            log.total_cost_usd(),
            latency / queries.len() as f64,
        );
    }

    println!("\nThe paper's conclusion, reproduced: o1-mini costs more and is slower");
    println!("per refinement without better accuracy, so GPT-4o is the default.");
    println!(
        "Pre-filtering matters: refining all {} POIs per query instead of 10",
        city.dataset.len()
    );
    println!(
        "would multiply the per-query token bill by ~{}x.",
        city.dataset.len() / 10
    );
}

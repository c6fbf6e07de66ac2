//! Figure-2 walkthrough: every stage of the SemaSK architecture with its
//! actual inputs and outputs, for one POI and one query.
//!
//! Data preparation: raw POI → address completion → tip summarization
//! (real prompt through the chat API) → embedding → vector DB.
//! Query processing: query text → embedding → filtered ANN → refinement
//! prompt → Python-dict answer → final result.
//!
//! ```sh
//! cargo run --release --example pipeline_walkthrough
//! ```

use std::sync::Arc;

use geotext::BoundingBox;
use llm::prompts::{rerank_prompt, summarize_prompt};
use llm::{ChatRequest, ModelKind, SimLlm};
use semask::{prepare_city, PreparedCity, SemaSkConfig, SemaSkEngine, SemaSkQuery, Variant};

fn section(title: &str) {
    println!("\n==== {title} ====");
}

fn main() {
    let city = datagen::poi::generate_city(&datagen::CITIES[2], 300, 3);
    let llm = Arc::new(SimLlm::new());

    section("raw POI record (paper Table 1 schema)");
    let raw = &city.dataset.objects()[42];
    for (k, v) in raw.attrs.iter() {
        let val = v.flatten();
        let short = if val.len() > 90 {
            format!("{}…", &val[..90])
        } else {
            val
        };
        println!("  {k:<12} {short}");
    }

    section("step 1: address completion (reverse geocoding)");
    let geocoder = datagen::ReverseGeocoder::for_city(&city.city);
    let addr = geocoder.locate(&raw.location);
    println!(
        "  ({:.4}, {:.4}) -> {} / {} / {} / {}",
        raw.location.lat, raw.location.lon, addr.city, addr.county, addr.suburb, addr.neighborhood
    );

    section("step 2: tip summarization (GPT-3.5 Turbo, the paper's prompt)");
    let tips: Vec<String> = raw
        .attrs
        .get("tips")
        .and_then(|v| v.as_list())
        .map(<[String]>::to_vec)
        .unwrap_or_default();
    let prompt = summarize_prompt(&tips);
    println!("  prompt head: {}…", &prompt[..120.min(prompt.len())]);
    let resp = llm
        .complete(&ChatRequest::user(ModelKind::Gpt35Turbo, prompt))
        .expect("summarize");
    println!(
        "  summary ({} tokens, {:.0} ms simulated): {}",
        resp.usage.completion_tokens, resp.latency_ms, resp.content
    );

    section("step 3: embedding generation -> vector database");
    let config = SemaSkConfig::default();
    let prepared = Arc::new(prepare_city(&city, &llm, &config).expect("prep"));
    let etext = PreparedCity::embedding_text(&prepared.dataset.objects()[42]);
    println!("  embedding input:\n    {}", etext.replace('\n', "\n    "));
    println!(
        "  -> {}-d vector stored in collection `{}` at its position",
        config.embedder.dim, prepared.collection_name
    );

    section("query processing: filtering");
    let range = BoundingBox::from_center_km(city.city.center(), 5.0, 5.0);
    let qtext = "Find me a pizzeria with gooey cheese pull.";
    let engine = SemaSkEngine::new(
        Arc::clone(&prepared),
        Arc::clone(&llm),
        config,
        Variant::Full,
    );
    let outcome = engine
        .query(&SemaSkQuery::new(range, qtext))
        .expect("query");
    println!("  query: {qtext}");
    println!("  top-10 candidates by embedding similarity inside the range:");
    for p in &outcome.pois {
        println!("    {:<26} score {:.3}", p.name, p.embed_score);
    }

    section("query processing: refinement (GPT-4o, the paper's prompt)");
    let pois_json = geotext::json_array(outcome.pois.iter().map(|p| &prepared.dataset[p.id]));
    let rp = rerank_prompt(&pois_json, qtext);
    println!("  prompt head: {}…", &rp[..140.min(rp.len())]);
    let rr = llm
        .complete(&ChatRequest::user(ModelKind::Gpt4o, rp))
        .expect("rerank");
    println!(
        "  raw LLM answer (Python-dict format): {}",
        if rr.content.len() > 220 {
            format!("{}…", &rr.content[..220])
        } else {
            rr.content.clone()
        }
    );

    section("final answer");
    for p in outcome.pois.iter().filter(|p| p.recommended) {
        println!("  {:<26} {}", p.name, p.reason);
    }
    println!(
        "\n  latency: filtering {:.1} ms + refinement {:.0} ms",
        outcome.latency.filtering_ms, outcome.latency.refinement_ms
    );
    let log = llm.cost_log();
    println!(
        "  session LLM spend: {} calls, ${:.4}",
        log.num_calls(),
        log.total_cost_usd()
    );
}

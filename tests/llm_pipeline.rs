//! Integration of the LLM runtime with generated data: the exact prompt
//! strings of the paper flowing through the chat API.

use llm::prompts::{querygen_prompt, rerank_prompt, summarize_prompt};
use llm::{parse_rerank_response, ChatRequest, ModelKind, SimLlm};

fn city() -> datagen::CityData {
    datagen::poi::generate_city(&datagen::CITIES[1], 120, 23)
}

#[test]
fn summaries_preserve_dominant_concepts_of_generated_tips() {
    let data = city();
    let llm = SimLlm::new();
    let detector = concepts::ConceptDetector::builtin();
    let ontology = concepts::Ontology::builtin();
    let mut preserved = 0usize;
    let mut total = 0usize;
    for o in data.dataset.iter().take(30) {
        let tips: Vec<String> = o
            .attrs
            .get("tips")
            .and_then(|v| v.as_list())
            .map(<[String]>::to_vec)
            .unwrap_or_default();
        let resp = llm
            .complete(&ChatRequest::user(
                ModelKind::Gpt35Turbo,
                summarize_prompt(&tips),
            ))
            .expect("summarize");
        let summary_concepts = detector.detect_ids(&resp.content);
        for &c in data.concepts_of(o.id) {
            total += 1;
            if summary_concepts
                .iter()
                .any(|&s| s == c || ontology.implied(s).contains(&c))
            {
                preserved += 1;
            }
        }
    }
    let rate = preserved as f64 / total as f64;
    // GPT-3.5-level summarization keeps most but not all concepts
    // (paper: summaries "include the key information from the raw tips").
    assert!(rate > 0.5, "preserved only {rate:.2} of concepts");
    assert!(rate < 1.0, "summarization should be lossy, got {rate:.2}");
}

#[test]
fn rerank_on_real_records_puts_target_archetype_first() {
    let data = city();
    let llm = SimLlm::new();
    // Candidates: a sports bar and some cafés.
    let mut bars = Vec::new();
    let mut cafes = Vec::new();
    for o in data.dataset.iter() {
        let arch = data.archetype_of(o.id).key;
        if arch == "sports_bar" && bars.len() < 2 {
            bars.push(o);
        }
        if arch == "cafe" && cafes.len() < 4 {
            cafes.push(o);
        }
    }
    if bars.is_empty() || cafes.is_empty() {
        return; // tiny sample lacked the archetypes; other seeds cover it
    }
    let pois = geotext::json_array(cafes.iter().chain(bars.iter()).copied());
    let resp = llm
        .complete(&ChatRequest::user(
            ModelKind::Gpt4o,
            rerank_prompt(&pois, "a sports bar with big screens to watch the game"),
        ))
        .expect("rerank");
    let ranked = parse_rerank_response(&resp.content);
    assert!(!ranked.is_empty(), "expected at least one recommendation");
    let bar_names: Vec<&str> = bars.iter().map(|o| o.name()).collect();
    assert!(
        bar_names.contains(&ranked[0].0.as_str()),
        "top result {} is not a sports bar",
        ranked[0].0
    );
}

#[test]
fn querygen_produces_semantic_queries_for_generated_pois() {
    let data = city();
    let llm = SimLlm::new();
    let detector = concepts::ConceptDetector::builtin();
    let o = &data.dataset.objects()[0];
    let info = format!(
        "{} is located at {} and primarily serves the category of {}. Customers often highlight: '{}'",
        o.name(),
        o.attrs.get_text("address").unwrap_or("?"),
        o.attrs.get("categories").map(|v| v.flatten()).unwrap_or_default(),
        o.attrs.get("tips").map(|v| v.flatten()).unwrap_or_default(),
    );
    let resp = llm
        .complete(&ChatRequest::user(
            ModelKind::O1Mini,
            querygen_prompt(&info),
        ))
        .expect("querygen");
    // The generated question should share at least one concept with the
    // POI, else it could never be answered by it.
    let q_concepts = detector.detect_ids(&resp.content);
    let poi_concepts = detector.detect_ids(&o.to_document());
    assert!(
        q_concepts.iter().any(|c| poi_concepts.contains(c)),
        "query `{}` shares no concept with the POI",
        resp.content
    );
}

#[test]
fn latency_and_cost_scale_with_candidate_count() {
    let data = city();
    let llm = SimLlm::new();
    let pois = data.dataset.objects();
    let small = rerank_prompt(&geotext::json_array(&pois[..2]), "coffee");
    let large = rerank_prompt(&geotext::json_array(&pois[..20]), "coffee");
    let r_small = llm
        .complete(&ChatRequest::user(ModelKind::Gpt4o, small))
        .expect("small");
    let r_large = llm
        .complete(&ChatRequest::user(ModelKind::Gpt4o, large))
        .expect("large");
    assert!(r_large.usage.prompt_tokens > r_small.usage.prompt_tokens * 4);
    assert!(r_large.latency_ms > r_small.latency_ms);
}

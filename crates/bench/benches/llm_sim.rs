//! Criterion bench for the simulated LLM runtime: prompt parsing + task
//! execution throughput (the *wall-clock* cost of the simulator, as
//! opposed to the virtual latency it reports).
//!
//! `rerank_call_real_10` is the refinement stage as the engine runs it,
//! minus retrieval: write the prompt from ten prepared POIs of a
//! generated city, serve it, parse the answer. `read_10_pois` is the
//! model's reading of that prompt on its own: scan the JSON of the ten
//! POIs, read each POI's strings and detect its concepts at GPT-4o's
//! fidelity, the prompt written once outside the loop.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use concepts::FidelityProfile;
use llm::prompts::{extract_rerank, rerank_prompt, summarize_prompt};
use llm::{parse_rerank_response, ChatRequest, ModelKind, SimLlm};
use semask::{prepare_city, SemaSkConfig};

fn bench_llm(c: &mut Criterion) {
    let llm = SimLlm::new();
    let tips: Vec<String> = (0..11)
        .map(|i| format!("tip {i}: big screens on every wall, saucy drums and flats"))
        .collect();
    let sum_req = ChatRequest::user(ModelKind::Gpt35Turbo, summarize_prompt(&tips));

    let data = datagen::poi::generate_city(&datagen::CITIES[1], 200, 7);
    let prepared = prepare_city(&data, &llm, &SemaSkConfig::default()).expect("prep");
    let candidates: Vec<&geotext::GeoTextObject> = prepared.dataset.iter().take(10).collect();
    let query = "a bar to watch football that serves chicken wings";

    let mut group = c.benchmark_group("llm_sim");
    group.bench_function("summarize_call", |b| {
        b.iter(|| black_box(llm.complete(&sum_req).unwrap()));
    });
    group.bench_function("rerank_call_real_10", |b| {
        b.iter(|| {
            let prompt = rerank_prompt(&geotext::json_array(candidates.iter().copied()), query);
            let resp = llm
                .complete(&ChatRequest::user(ModelKind::Gpt4o, prompt))
                .unwrap();
            black_box(parse_rerank_response(&resp.content))
        });
    });
    let prompt = rerank_prompt(&geotext::json_array(candidates.iter().copied()), query);
    let detector = llm.detector();
    let profile = FidelityProfile::gpt4o();
    group.bench_function("read_10_pois", |b| {
        b.iter(|| {
            let (pois, _) = extract_rerank(&prompt, detector).unwrap();
            let found: usize = pois
                .iter()
                .map(|p| detector.detect_noisy_reading(&p.reading, &profile).len())
                .sum();
            black_box(found)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_llm);
criterion_main!(benches);

//! The refinement prompt on real objects: `write_json` writes what the
//! value tree printed for every object of a prepared city, the one-pass
//! reader reads back what the value tree held, and no damage to a real
//! prompt makes the reader panic or allocate out of proportion to it.

#[path = "common/heap.rs"]
mod heap;
#[path = "../crates/geotext/tests/oracle/mod.rs"]
mod oracle;

use std::sync::Arc;

use heap::peak_bytes_of;

use concepts::ConceptDetector;
use geotext::GeoTextObject;
use llm::prompts::{extract_rerank, rerank_prompt};
use llm::{LlmError, SimLlm};
use semask::{prepare_city, PreparedCity, SemaSkConfig};
use serde_json::Value;

fn prepared() -> PreparedCity {
    let data = datagen::poi::generate_city(&datagen::CITIES[2], 120, 9);
    prepare_city(&data, &Arc::new(SimLlm::new()), &SemaSkConfig::default()).expect("prep")
}

/// The value-tree reading of a POI the scanner replaced, kept as its
/// oracle.
fn tree_text(poi: &Value) -> String {
    fn walk(v: &Value, out: &mut String) {
        match v {
            Value::String(s) => {
                out.push_str(s);
                out.push_str(". ");
            }
            Value::Array(a) => a.iter().for_each(|x| walk(x, out)),
            Value::Object(o) => o.values().for_each(|x| walk(x, out)),
            _ => {}
        }
    }
    let mut s = String::new();
    walk(poi, &mut s);
    s
}

fn tree_name(poi: &Value) -> String {
    poi.get("name")
        .and_then(Value::as_str)
        .unwrap_or("<unnamed>")
        .to_owned()
}

#[test]
fn written_prompts_are_the_value_trees_and_read_back_like_them() {
    let city = prepared();
    let detector = ConceptDetector::builtin();
    let objects = city.dataset.objects();
    for o in objects {
        let mut written = String::new();
        o.write_json(&mut written);
        assert_eq!(written, oracle::json_of(o), "object {}", o.id);
    }
    for chunk in objects.chunks(10) {
        let json = geotext::json_array(chunk);
        let parsed = serde_json::from_str(&json).expect("valid JSON");
        let oracle = parsed.as_array().expect("a JSON array");
        let prompt = rerank_prompt(&json, "a quiet cafe");
        let (pois, query) =
            extract_rerank(&prompt, &detector).expect("a written prompt reads back");
        assert_eq!(query, "a quiet cafe");
        assert_eq!(pois.len(), chunk.len());
        for ((poi, value), o) in pois.iter().zip(oracle).zip(chunk) {
            assert_eq!(poi.name, tree_name(value));
            assert_eq!(poi.name, o.name());
            assert_eq!(poi.reading, detector.read(&tree_text(value)));
        }
    }
}

/// Reads `prompt`, which must come back `Ok` or `MalformedPrompt`, and
/// returns the peak heap bytes the read held.
fn read_damaged(detector: &ConceptDetector, prompt: &str) -> usize {
    let (result, peak) =
        peak_bytes_of(|| extract_rerank(prompt, detector).map(|(pois, _)| pois.len()));
    match result {
        Ok(_) | Err(LlmError::MalformedPrompt { .. }) => peak,
        Err(e) => panic!("{e:?} for {prompt:?}"),
    }
}

#[test]
fn damaged_prompts_are_refused_without_panic_or_outsized_allocation() {
    let city = prepared();
    let detector = ConceptDetector::builtin();
    let objects: Vec<&GeoTextObject> = city.dataset.iter().take(2).collect();
    let prompt = rerank_prompt(&geotext::json_array(objects), "a quiet cafe");
    let json_start = prompt.find("\nInformation: ").expect("template") + "\nInformation: ".len();
    let json_end = prompt.rfind("\nQuery: ").expect("template");
    // Reading the intact prompt holds the scanned text of two POIs.
    let intact = read_damaged(&detector, &prompt);
    assert!(intact > 0, "the counter sees the reader's heap");
    let bound = 2 * prompt.len() + 1024;
    assert!(intact <= bound, "{intact} B held for the intact prompt");

    for cut in (0..=prompt.len()).filter(|&i| prompt.is_char_boundary(i)) {
        let peak = read_damaged(&detector, &prompt[..cut]);
        assert!(peak <= bound, "cut at {cut}: {peak} B held");
    }
    let mut bytes = prompt.clone().into_bytes();
    for i in json_start..json_end {
        let original = bytes[i];
        for flipped in [
            original ^ 0x01,
            original ^ 0x20,
            b'"',
            b'\\',
            b']',
            b'}',
            b',',
        ] {
            bytes[i] = flipped;
            if let Ok(damaged) = std::str::from_utf8(&bytes) {
                let peak = read_damaged(&detector, damaged);
                assert!(peak <= bound, "byte {i} as {flipped:#x}: {peak} B held");
            }
        }
        bytes[i] = original;
    }
}

#[test]
fn hostile_shapes_cost_heap_in_proportion_to_their_length() {
    let detector = ConceptDetector::builtin();
    let n = 100_000;
    for json in [
        format!("{}{}", "[".repeat(n), "]".repeat(n)),
        format!("[{}0]", "0,".repeat(n)),
        format!("[{}{{}}]", r#""a","#.repeat(n)),
        format!("[{{{}\"z\":0}}]", r#""name":"n","#.repeat(n)),
        "[".repeat(n),
    ] {
        let prompt = rerank_prompt(&json, "q");
        let peak = read_damaged(&detector, &prompt);
        assert!(
            peak <= 64 * prompt.len(),
            "{} B held for a {} B prompt",
            peak,
            prompt.len()
        );
    }
}

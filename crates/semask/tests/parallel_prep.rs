//! What preparation stores, pinned by bytes, and a prepared city that
//! answers queries.

use llm::SimLlm;
use semask::persist::save_prepared;
use semask::{prepare_city, SemaSkConfig, SemaSkEngine, SemaSkQuery, Variant};
use std::sync::Arc;

/// Where each of a snapshot file's seven sections starts and ends, read
/// off its section table (layout in the `persist` module docs).
fn sections(file: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut start = 16 + 4 + 7 * 8;
    (0..7)
        .map(|i| {
            let at = 20 + i * 8;
            let len = u64::from_le_bytes(file[at..at + 8].try_into().unwrap()) as usize;
            start += len;
            start - len..start
        })
        .collect()
}

/// Every attribute preparation attaches and every vector it embeds, by
/// length and CRC-32 of the snapshot sections that hold them: the
/// dataset (section 6), the collection's meta (ids and positions,
/// section 1) and its vectors (section 2). The graph and the norms are
/// left out: their bits go through the distance kernels, which differ
/// between the AVX2 and the scalar build.
#[test]
fn preparation_stores_pinned_bytes() {
    let data = datagen::poi::generate_city(&datagen::CITIES[3], 120, 31);
    let llm = SimLlm::new();
    let prepared = prepare_city(&data, &llm, &SemaSkConfig::default()).expect("prepare");
    assert_eq!(llm.cost_log().num_calls(), 120, "one summary a POI");

    let dir = std::env::temp_dir().join(format!("semask_prep_pin_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    save_prepared(&prepared, &dir).expect("save");
    let file = std::fs::read(dir.join("snap-0")).expect("read the snapshot");
    std::fs::remove_dir_all(&dir).ok();

    let sections = sections(&file);
    let pin = |i: usize| {
        let bytes = &file[sections[i].clone()];
        (bytes.len(), vecdb::crc32(bytes))
    };
    assert_eq!(pin(6), (168_823, 0x5ff0_1a3c), "dataset section");
    assert_eq!(pin(1), (3_058, 0xa719_187f), "meta section");
    assert_eq!(pin(2), (122_880, 0x6c17_541a), "vectors section");
}

#[test]
fn parallel_prepared_city_answers_queries() {
    let data = datagen::poi::generate_city(&datagen::CITIES[3], 120, 31);
    let config = SemaSkConfig::default();
    let llm = Arc::new(SimLlm::new());
    let prepared = Arc::new(prepare_city(&data, &llm, &config).expect("prepare"));
    let engine = SemaSkEngine::new(prepared, llm, config, Variant::Full);
    let range = geotext::BoundingBox::from_center_km(data.city.center(), 8.0, 8.0);
    let out = engine
        .query(&SemaSkQuery::new(range, "a cozy cafe with pour overs"))
        .expect("query");
    assert!(!out.pois.is_empty());
}

//! A batch of one unit — every `SemaSkEngine::query`, and any batch
//! whose queries share a range — runs on the caller and touches no pool.
//!
//! The shared pool starts its `vecdb-pool-N` threads on first use, so
//! "no such thread in this process" is "no pool call was made". That is
//! a statement about the whole process: this file holds one test and
//! must keep to one. Preparation fans out on the pool too, so the city
//! is prepared by a child run of this test binary and saved; the test
//! loads the snapshot, which touches no pool.

mod common;

use std::process::Command;
use std::sync::Arc;

use semask::persist::{load_prepared, save_prepared};
use semask::{prepare_city, SemaSkConfig, SemaSkEngine, SemaSkQuery, Variant};

/// Set in the child run: the directory to save the prepared city in.
const PREP_DIR_ENV: &str = "SEMASK_ONE_UNIT_PREP_DIR";

/// Names of this process's threads, or `None` where the platform does
/// not list them under `/proc`.
fn thread_names() -> Option<Vec<String>> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|name| name.trim().to_owned())
            .collect(),
    )
}

fn pool_threads() -> Option<usize> {
    let names = thread_names()?;
    Some(
        names
            .iter()
            .filter(|n| n.starts_with("vecdb-pool-"))
            .count(),
    )
}

#[test]
fn a_single_unit_batch_never_reaches_the_pool() {
    let config = SemaSkConfig::default();
    if let Ok(dir) = std::env::var(PREP_DIR_ENV) {
        let data = datagen::poi::generate_city(&datagen::CITIES[2], 320, 77);
        let prepared = prepare_city(&data, &llm::SimLlm::new(), &config).expect("prep");
        save_prepared(&prepared, dir.as_ref()).expect("save");
        return;
    }
    if pool_threads().is_none() {
        eprintln!("skipped: this platform does not list threads under /proc/self/task");
        return;
    }
    let dir = std::env::temp_dir().join(format!("semask_one_unit_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let status = Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", "a_single_unit_batch_never_reaches_the_pool"])
        .env(PREP_DIR_ENV, &dir)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("run the preparing child");
    assert!(status.success(), "the preparing child failed: {status}");
    let prepared = Arc::new(load_prepared(&dir, &config).expect("load"));
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(pool_threads(), Some(0), "loading a snapshot used the pool");
    let llm = Arc::new(llm::SimLlm::new());
    let word = common::corpus_word(&prepared.dataset, 3);
    let center = prepared.city.center();
    let near = geotext::BoundingBox::from_center_km(center, 3.0, 3.0);
    let far = geotext::BoundingBox::from_center_km(center, 9.0, 9.0);
    for variant in [Variant::EmbeddingOnly, Variant::Full] {
        let engine = SemaSkEngine::new(
            Arc::clone(&prepared),
            Arc::clone(&llm),
            config.clone(),
            variant,
        );
        // One range, eight queries, three keyword groups: one unit.
        let one_unit: Vec<SemaSkQuery> = (0..8)
            .map(|i| {
                let q = SemaSkQuery::new(near, format!("{i}: cozy coffee with pastries"));
                match i % 3 {
                    0 => q,
                    1 => q.with_keywords(&word),
                    _ => q.with_keywords("zzzunknowntoken"),
                }
            })
            .collect();
        let outcomes = engine.query_batch(&one_unit).expect("one unit");
        assert!(!outcomes[0].pois.is_empty() && !outcomes[1].pois.is_empty());
        for q in &one_unit {
            engine.query(q).expect("query");
        }
        engine
            .query(&SemaSkQuery::new(far, "late night tacos"))
            .expect("query");
        assert_eq!(
            pool_threads(),
            Some(0),
            "{variant:?}: one unit used the pool"
        );
    }

    // The probe sees a pool when there is one: two units fan out.
    let engine = SemaSkEngine::new(prepared, llm, config, Variant::EmbeddingOnly);
    let two_units = [
        SemaSkQuery::new(near, "cozy coffee with pastries"),
        SemaSkQuery::new(far, "late night tacos"),
    ];
    engine.query_batch(&two_units).expect("two units");
    // A worker names itself once it first runs, which may be after the
    // submitter has finished both lanes on its own.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while pool_threads() == Some(0) {
        assert!(
            std::time::Instant::now() < deadline,
            "two units did not fan out"
        );
        std::thread::yield_now();
    }
}

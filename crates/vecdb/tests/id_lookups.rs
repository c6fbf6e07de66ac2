//! Id lookups through `Collection`'s public API, held to a `BTreeMap`
//! model of the live points: inserts, deletes, the same ids inserted
//! again, and `contains` / `vector` / `knn_among` probes, over ids that
//! arrive ascending, out of order, or scattered across the whole `u64`
//! range. At one step of every case the collection goes through a
//! snapshot and the run continues on what was restored, which must give
//! every answer and the same `memory_footprint()` the original gave.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use vecdb::{Collection, CollectionConfig, HnswConfig, PointId, VecDbError};

const DIM: usize = 4;

/// A finite vector from `seed`.
fn vector_of(seed: u64) -> Vec<f32> {
    (0..DIM as u64)
        .map(|i| {
            let h = seed.wrapping_add(i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (h >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        })
        .collect()
}

/// The id a fresh insert uses under `mode`: 0 ascending with gaps, 1 out
/// of order from a space small enough to collide, 2 sparse over the
/// whole range, `u64::MAX` and its neighbours among them.
fn fresh_id(mode: u8, last: PointId, seed: u64) -> PointId {
    match mode {
        0 => last.saturating_add(1 + seed % 3),
        1 => seed % 64,
        _ => match seed % 4 {
            0 => u64::MAX - (seed >> 2) % 3,
            1 => seed,
            2 => seed >> 40,
            _ => seed % 8,
        },
    }
}

/// The live points, and every id ever stored.
#[derive(Default)]
struct Model {
    live: BTreeMap<PointId, Vec<f32>>,
    stored: BTreeSet<PointId>,
}

/// One id's answers: whether it is live, and its vector.
type IdAnswer = (bool, Result<Vec<f32>, VecDbError>);

fn answers_for(c: &Collection, id: PointId) -> IdAnswer {
    (c.contains(id), c.vector(id).map(<[f32]>::to_vec))
}

/// `c` gives the model's answer for `id`.
fn check_id(c: &Collection, model: &Model, id: PointId, step: usize) -> Result<(), String> {
    let (contains, vector) = answers_for(c, id);
    match model.live.get(&id) {
        Some(v) => {
            prop_assert!(contains, "step {}: id {} lost", step, id);
            prop_assert_eq!(vector, Ok(v.clone()), "step {}: id {}", step, id);
        }
        None => {
            prop_assert!(!contains, "step {}: id {} live", step, id);
            prop_assert_eq!(
                vector,
                Err(VecDbError::PointNotFound { id }),
                "step {}",
                step
            );
        }
    }
    Ok(())
}

/// `knn_among` over `candidates` (distinct) with room for all of them
/// returns exactly the live ones, best first.
fn check_knn(
    c: &Collection,
    model: &Model,
    candidates: &[PointId],
    query: &[f32],
    step: usize,
) -> Result<(), String> {
    let hits = c.knn_among(query, candidates, candidates.len()).unwrap();
    let got: BTreeSet<PointId> = hits.iter().map(|h| h.id).collect();
    let want: BTreeSet<PointId> = candidates
        .iter()
        .copied()
        .filter(|id| model.live.contains_key(id))
        .collect();
    prop_assert_eq!(got.len(), hits.len(), "step {}: a hit twice", step);
    prop_assert_eq!(got, want, "step {}", step);
    prop_assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
    Ok(())
}

/// Every answer `c` gives about the stored ids and a few never stored.
fn everything(c: &Collection, model: &Model) -> Vec<String> {
    let probes = model
        .stored
        .iter()
        .copied()
        .chain([0, 1, u64::MAX, u64::MAX - 1, 1 << 40]);
    let mut out: Vec<String> = probes
        .map(|id| format!("{id}: {:?}", answers_for(c, id)))
        .collect();
    let all: Vec<PointId> = model.stored.iter().copied().collect();
    for q in 0..3 {
        let hits = c.knn_among(&vector_of(q), &all, 5).unwrap();
        out.push(format!("{hits:?}"));
    }
    out
}

fn collection() -> Collection {
    Collection::new(CollectionConfig {
        hnsw: HnswConfig {
            m: 4,
            m0: 8,
            ef_construction: 16,
            ..HnswConfig::default()
        },
        ..CollectionConfig::new(DIM)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn id_lookups_match_a_btreemap_model_across_a_snapshot(
        mode in 0u8..3,
        ops in prop::collection::vec((0u8..4, 0usize..usize::MAX, 0u64..=u64::MAX), 1..160),
        snapshot_at in 0usize..usize::MAX,
    ) {
        let snapshot_at = snapshot_at % ops.len();
        let mut c = collection();
        let mut model = Model::default();
        let mut last = 0;
        for (step, &(kind, pick, seed)) in ops.iter().enumerate() {
            if step == snapshot_at {
                let before = everything(&c, &model);
                let restored = Collection::from_snapshot_bytes(&c.to_snapshot_bytes())
                    .unwrap();
                prop_assert_eq!(restored.memory_footprint(), c.memory_footprint());
                prop_assert_eq!(everything(&restored, &model), before, "step {}", step);
                c = restored;
            }
            let stored: Vec<PointId> = model.stored.iter().copied().collect();
            let known = |pick: usize| stored.get(pick % stored.len().max(1)).copied();
            // An id ever stored, or now and then (and before any insert)
            // one that may never have been.
            let old_id = known(pick).filter(|_| seed % 5 != 0).unwrap_or(seed);
            match kind {
                // Insert a fresh id, or one that is stored already: the
                // same id again after its delete.
                0 | 1 => {
                    let id = if kind == 0 { fresh_id(mode, last, seed) } else { old_id };
                    let v = vector_of(seed);
                    let result = c.insert(id, v.clone(), (0.0, 0.0));
                    if let Entry::Vacant(slot) = model.live.entry(id) {
                        prop_assert_eq!(result, Ok(()));
                        slot.insert(v);
                        model.stored.insert(id);
                        last = last.max(id);
                    } else {
                        prop_assert_eq!(result, Err(VecDbError::PointExists { id }));
                    }
                }
                2 => {
                    let result = c.delete(old_id);
                    if model.live.remove(&old_id).is_some() {
                        prop_assert_eq!(result, Ok(()));
                    } else {
                        prop_assert_eq!(result, Err(VecDbError::PointNotFound { id: old_id }));
                    }
                }
                _ => {
                    check_id(&c, &model, old_id, step)?;
                    let mut candidates: Vec<PointId> =
                        stored.iter().copied().filter(|id| id % 3 == seed % 3).collect();
                    candidates.push(old_id);
                    candidates.sort_unstable();
                    candidates.dedup();
                    check_knn(&c, &model, &candidates, &vector_of(seed >> 1), step)?;
                }
            }
            prop_assert_eq!(c.len(), model.live.len(), "step {}", step);
            // 12 B for every id ever stored, a deleted one included.
            prop_assert_eq!(c.memory_footprint().id_index_bytes, 12 * model.stored.len());
        }
        for &id in model.stored.iter().chain(&[0, u64::MAX, u64::MAX - 1]) {
            check_id(&c, &model, id, ops.len())?;
        }
        let all: Vec<PointId> = model.stored.iter().copied().collect();
        check_knn(&c, &model, &all, &vector_of(7), ops.len())?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bulk_load_then_delete_and_reinsert_churn(n in 1usize..1_000, churn in 0usize..300) {
        // Ascending ids with a stride, then updates: each is a delete and
        // an insert of the same id with a new vector.
        let mut c = collection();
        let mut model = Model::default();
        for i in 0..n as u64 {
            let v = vector_of(i);
            c.insert(i * 3, v.clone(), (0.0, 0.0)).unwrap();
            model.live.insert(i * 3, v);
            model.stored.insert(i * 3);
        }
        for k in 0..churn as u64 {
            let id = (k * 7) % (n as u64 * 3);
            let result = c.delete(id);
            if let Entry::Occupied(mut slot) = model.live.entry(id) {
                prop_assert_eq!(result, Ok(()));
                let v = vector_of(1_000_000 + k);
                c.insert(id, v.clone(), (0.0, 0.0)).unwrap();
                slot.insert(v);
            } else {
                prop_assert_eq!(result, Err(VecDbError::PointNotFound { id }));
            }
        }
        prop_assert_eq!(c.len(), n);
        // An update reuses its id's slot.
        prop_assert_eq!(c.memory_footprint().id_index_bytes, 12 * n);
        for &id in &model.stored {
            check_id(&c, &model, id, churn)?;
        }
        // Ids between the stride points were never inserted.
        for i in 0..(n as u64).min(100) {
            check_id(&c, &model, i * 3 + 1, churn)?;
        }
    }
}

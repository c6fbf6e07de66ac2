//! Soft-deletion behaviour of collections.

use vecdb::{
    Collection, CollectionConfig, Distance, Filter, SearchParams, SearchStrategy, VecDbError,
};

fn collection(n: usize) -> Collection {
    let mut c = Collection::new(CollectionConfig {
        distance: Distance::Euclid,
        ..CollectionConfig::new(2)
    });
    for i in 0..n as u64 {
        c.insert(i, vec![i as f32, 0.0], (i as f64, 0.0)).unwrap();
    }
    c
}

#[test]
fn deleted_points_vanish_from_search() {
    let mut c = collection(20);
    c.delete(5).unwrap();
    c.delete(6).unwrap();
    let r = c.search(&[5.4, 0.0], &SearchParams::top_k(3)).unwrap();
    assert!(r.iter().all(|p| p.id != 5 && p.id != 6));
    // HNSW path too.
    let hnsw = SearchParams::top_k(3)
        .with_ef(64)
        .with_strategy(SearchStrategy::Hnsw);
    let r2 = c.search(&[5.4, 0.0], &hnsw).unwrap();
    assert!(r2.iter().all(|p| p.id != 5 && p.id != 6));
}

#[test]
fn deleted_points_vanish_from_lookups_and_filters() {
    let mut c = collection(10);
    c.delete(3).unwrap();
    assert!(c.iter_points().all(|(id, ..)| id != 3));
    assert!(matches!(
        c.vector(3),
        Err(VecDbError::PointNotFound { id: 3 })
    ));
    let all = Filter::geo_box(-1.0, -1.0, 100.0, 1.0);
    assert!(!c.filter_ids(&all).contains(&3));
    assert_eq!(c.len(), 9);
}

#[test]
fn delete_twice_errors() {
    let mut c = collection(5);
    c.delete(2).unwrap();
    assert!(matches!(
        c.delete(2),
        Err(VecDbError::PointNotFound { id: 2 })
    ));
}

#[test]
fn id_reusable_after_delete() {
    let mut c = collection(5);
    c.delete(2).unwrap();
    c.insert(2, vec![100.0, 0.0], (0.0, 0.0)).unwrap();
    assert_eq!(c.len(), 5);
    let v = c.vector(2).unwrap();
    assert_eq!(v, &[100.0, 0.0]);
}

#[test]
fn duplicate_live_id_rejected() {
    let mut c = collection(5);
    assert!(matches!(
        c.insert(2, vec![0.0, 0.0], (0.0, 0.0)),
        Err(VecDbError::PointExists { id: 2 })
    ));
}

#[test]
fn delete_everything_empties_collection() {
    let mut c = collection(8);
    for i in 0..8 {
        c.delete(i).unwrap();
    }
    assert!(c.is_empty());
    let r = c.search(&[0.0, 0.0], &SearchParams::top_k(5)).unwrap();
    assert!(r.is_empty());
}

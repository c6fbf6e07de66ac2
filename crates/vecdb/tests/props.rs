//! Property-based tests for the vector database.

use proptest::prelude::*;
use vecdb::{
    Collection, CollectionConfig, Distance, Filter, FlatIndex, HnswConfig, HnswIndex, Rows,
    SearchParams,
};

fn arb_vectors(dim: usize, max: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-1.0f32..1.0, dim..=dim), 2..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hnsw_exact_match_is_top1(vectors in arb_vectors(8, 120), probe in 0usize..100) {
        let probe = probe % vectors.len();
        let inv: Vec<f32> = vectors.iter().map(|v| vecdb::inv_norm(v)).collect();
        let flat = vectors.concat();
        let rows = Rows::new(&flat, 8);
        let mut idx = HnswIndex::new(Distance::Euclid, HnswConfig::default());
        for i in 0..vectors.len() {
            idx.insert(i, rows, &inv);
        }
        let r = idx.search(rows.row(probe), 1, 64, rows, &inv, None);
        prop_assert_eq!(r.len(), 1);
        // The stored vector itself has distance 0; any returned vector at
        // distance 0 is acceptable (duplicates possible).
        prop_assert!(r[0].1 < 1e-6);
    }

    #[test]
    fn hnsw_results_sorted_and_within_k(vectors in arb_vectors(6, 100), k in 1usize..20) {
        let inv: Vec<f32> = vectors.iter().map(|v| vecdb::inv_norm(v)).collect();
        let flat = vectors.concat();
        let rows = Rows::new(&flat, 6);
        let mut idx = HnswIndex::new(Distance::Cosine, HnswConfig::default());
        for i in 0..vectors.len() {
            idx.insert(i, rows, &inv);
        }
        let q = vec![0.5f32; 6];
        let r = idx.search(&q, k, 64, rows, &inv, None);
        prop_assert!(r.len() <= k);
        prop_assert!(r.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn flat_search_matches_manual_argmin(vectors in arb_vectors(4, 60)) {
        let mut flat = FlatIndex::new(Distance::Euclid);
        for v in &vectors {
            flat.push(v.clone());
        }
        let q = vec![0.1f32, -0.2, 0.3, 0.0];
        let r = flat.search(&q, 1, None);
        let manual = vectors
            .iter()
            .enumerate()
            .map(|(i, v)| (i, Distance::Euclid.distance(&q, v)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        prop_assert_eq!(r[0].0, manual.0);
    }

    #[test]
    fn filtered_search_never_leaks(
        vectors in arb_vectors(4, 80),
        min_lat in 0.0f64..0.5,
        span in 0.1f64..0.5,
    ) {
        let mut c = Collection::new(CollectionConfig::new(4));
        for (i, v) in vectors.iter().enumerate() {
            let lat = i as f64 / vectors.len() as f64;
            c.insert(i as u64, v.clone(), (lat, 0.0)).unwrap();
        }
        let f = Filter::geo_box(min_lat, -1.0, (min_lat + span).min(1.0), 1.0);
        let r = c
            .search(&[0.0, 0.0, 0.0, 0.0], &SearchParams::top_k(10).with_filter(f.clone()))
            .unwrap();
        let allowed = c.filter_ids(&f);
        for hit in r {
            prop_assert!(allowed.contains(&hit.id));
        }
    }

    #[test]
    fn exact_and_default_search_agree_on_top1(vectors in arb_vectors(8, 150)) {
        let mut c = Collection::new(CollectionConfig {
            distance: Distance::Euclid,
            ..CollectionConfig::new(8)
        });
        for (i, v) in vectors.iter().enumerate() {
            c.insert(i as u64, v.clone(), (0.0, 0.0)).unwrap();
        }
        let q = vec![0.0f32; 8];
        let exact = c.search(&q, &SearchParams::top_k(1).with_exact(true)).unwrap();
        let approx = c.search(&q, &SearchParams::top_k(1).with_ef(256)).unwrap();
        // With a wide beam on small data, HNSW top-1 distance equals exact
        // top-1 distance (ids may differ only on exact ties).
        prop_assert!((exact[0].score - approx[0].score).abs() < 1e-5);
    }
}

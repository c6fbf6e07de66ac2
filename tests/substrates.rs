//! Cross-crate substrate integration: spatial × text × vector DB ×
//! embedding interplay on generated data.

use embed::{Embedder, SemanticEmbedder};
use geotext::BoundingBox;
use spatial::{GridIndex, IrTree, Item, SpatialKeywordQuery};
use vecdb::{Collection, CollectionConfig, Filter, SearchParams, SearchStrategy, VectorDb};

fn city() -> datagen::CityData {
    datagen::poi::generate_city(&datagen::CITIES[3], 400, 13)
}

#[test]
fn rtree_grid_and_scan_agree_on_generated_city() {
    let data = city();
    let items: Vec<Item> = data
        .dataset
        .iter()
        .map(|o| Item::new(o.id, o.location))
        .collect();
    let grid = GridIndex::build(items, 16).expect("grid");
    for i in 0..5 {
        let c = data.city.center().offset_km(i as f64 - 2.0, 2.0 - i as f64);
        let range = BoundingBox::from_center_km(c, 5.0, 5.0);
        let mut indexed = grid.range_query(&range);
        let mut scanned = data.dataset.range_scan(&range);
        indexed.sort();
        scanned.sort();
        assert_eq!(indexed, scanned);
    }
}

#[test]
fn irtree_conjunctive_search_subset_of_range() {
    let data = city();
    let tree = IrTree::build(&data.dataset);
    let range = BoundingBox::from_center_km(data.city.center(), 6.0, 6.0);
    let hits = tree.search(&SpatialKeywordQuery {
        range,
        keywords: "coffee".to_owned(),
    });
    let in_range = data.dataset.range_scan(&range);
    for id in &hits {
        assert!(in_range.contains(id));
        assert!(data.dataset[*id]
            .to_document()
            .to_lowercase()
            .contains("coffee"));
    }
}

#[test]
fn vecdb_geo_filter_equals_dataset_range_scan() {
    let data = city();
    let embedder = SemanticEmbedder::default_model();
    let db = VectorDb::new();
    let handle = db
        .add_collection(
            "pois",
            Collection::new(CollectionConfig::new(embedder.dim())),
        )
        .expect("create");
    {
        let mut c = handle.write();
        for o in data.dataset.iter() {
            let v = embedder.embed(&o.to_document());
            let position = (o.location.lat, o.location.lon);
            c.insert(u64::from(o.id.0), v, position).expect("insert");
        }
    }
    let range = BoundingBox::from_center_km(data.city.center(), 5.0, 5.0);
    let filter = Filter::geo_box(range.min_lat, range.min_lon, range.max_lat, range.max_lon);
    let c = handle.read();
    let mut filtered: Vec<u32> = c
        .filter_ids(&filter)
        .into_iter()
        .map(|i| i as u32)
        .collect();
    filtered.sort_unstable();
    let mut scanned: Vec<u32> = data
        .dataset
        .range_scan(&range)
        .iter()
        .map(|i| i.0)
        .collect();
    scanned.sort_unstable();
    assert_eq!(filtered, scanned);
}

#[test]
fn semantically_similar_pois_are_neighbors_in_vecdb() {
    let data = city();
    let embedder = SemanticEmbedder::default_model();
    let db = VectorDb::new();
    let handle = db
        .add_collection(
            "pois",
            Collection::new(CollectionConfig::new(embedder.dim())),
        )
        .expect("create");
    {
        let mut c = handle.write();
        for o in data.dataset.iter() {
            let v = embedder.embed(&o.to_document());
            c.insert(u64::from(o.id.0), v, (0.0, 0.0)).expect("insert");
        }
    }
    // Query with a coffee paraphrase: the top hits should be dominated by
    // POIs whose ground-truth concepts entail coffee.
    let ontology = concepts::Ontology::builtin();
    let coffee = ontology.id_of("coffee-specialty");
    let qv = embedder.embed("beans roasted in house and perfectly pulled shots");
    let c = handle.read();
    let params = SearchParams::top_k(10).with_strategy(SearchStrategy::Hnsw);
    let hits = c.search(&qv, &params).expect("search");
    let coffee_hits = hits
        .iter()
        .filter(|h| ontology.satisfies(data.concepts_of(geotext::ObjectId(h.id as u32)), coffee))
        .count();
    assert!(
        coffee_hits >= 5,
        "expected mostly coffee POIs in top-10, got {coffee_hits}"
    );
}

#[test]
fn irtree_misses_opaque_names_that_semantics_catches() {
    // The Figure-1 invariant as a test: conjunctive keyword search on
    // "cafe" can only return POIs whose text contains the word, while the
    // ground truth contains opaque-named cafés it cannot see when their
    // tips avoid the word too.
    let data = datagen::poi::generate_city(&datagen::CITIES[0], 800, 5);
    let ontology = concepts::Ontology::builtin();
    let coffee = ontology.id_of("coffee-specialty");
    let tree = IrTree::build(&data.dataset);
    let range = BoundingBox::from_center_km(data.city.center(), 8.0, 8.0);
    let keyword_hits = tree.search(&SpatialKeywordQuery {
        range,
        keywords: "cafe".to_owned(),
    });
    let truth: Vec<_> = data
        .dataset
        .range_scan(&range)
        .into_iter()
        .filter(|&id| ontology.satisfies(data.concepts_of(id), coffee))
        .collect();
    assert!(!truth.is_empty());
    // Keyword matching finds strictly fewer than the ground truth.
    assert!(
        keyword_hits.len() < truth.len(),
        "keyword search should miss cafés ({} vs {})",
        keyword_hits.len(),
        truth.len()
    );
}

//! Figure-3 reproduction: the SemaSK demo, as a CLI.
//!
//! The paper's demo UI has a suburb selector, a free-text query box, a
//! map with green (recommended) and blue (filtered-out) markers, and a
//! reason panel per POI. This example renders the same elements in the
//! terminal: an ASCII map of the query range, the marker legend, and the
//! per-POI reasons.
//!
//! ```sh
//! cargo run --release --example demo_cli
//! # or with your own query:
//! cargo run --release --example demo_cli -- "Downtown" "somewhere with live jazz and cocktails"
//! ```

use std::sync::Arc;

use geotext::BoundingBox;
use llm::SimLlm;
use semask::{prepare_city, SemaSkConfig, SemaSkEngine, SemaSkQuery, Variant};

const MAP_W: usize = 60;
const MAP_H: usize = 22;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let suburb = args
        .get(1)
        .cloned()
        .unwrap_or_else(|| "Downtown".to_owned());
    let text = args.get(2).cloned().unwrap_or_else(|| {
        "I am looking for a bar to watch football that also serves delicious chicken. \
         Do you have any recommendations?"
            .to_owned()
    });

    // Saint Louis, like the paper's demo walkthrough.
    let city = datagen::poi::generate_city(&datagen::CITIES[4], 1000, 99);
    let llm = Arc::new(SimLlm::new());
    let config = SemaSkConfig::default();
    let prepared = Arc::new(prepare_city(&city, &llm, &config).expect("prep"));

    // Suburb selector (the demo "limits the query range to the different
    // suburbs for simplicity").
    println!(
        "available suburbs: {}",
        prepared.geocoder.suburbs().join(", ")
    );
    let Some((center, half_km)) = prepared.geocoder.suburb_center(&suburb) else {
        eprintln!("unknown suburb `{suburb}`");
        std::process::exit(1);
    };
    let range = BoundingBox::from_center_km(center, half_km * 2.0, half_km * 2.0);
    println!(
        "\nquery range: {suburb}, {} ({:.0} km square)",
        city.city.name,
        half_km * 2.0
    );
    println!("query: {text}\n");

    let engine = SemaSkEngine::new(prepared, llm, config, Variant::Full);
    let outcome = engine.query_suburb(&suburb, &text).expect("query");
    // (query_suburb is equivalent to building the range by hand:)
    let _ = SemaSkQuery::new(range, text);

    // --- ASCII map ---
    let mut grid = vec![vec!['.'; MAP_W]; MAP_H];
    let to_cell = |lat: f64, lon: f64| -> (usize, usize) {
        let x = ((lon - range.min_lon) / (range.max_lon - range.min_lon) * (MAP_W as f64 - 1.0))
            .clamp(0.0, MAP_W as f64 - 1.0) as usize;
        let y = ((range.max_lat - lat) / (range.max_lat - range.min_lat) * (MAP_H as f64 - 1.0))
            .clamp(0.0, MAP_H as f64 - 1.0) as usize;
        (x, y)
    };
    let mut labels = Vec::new();
    for (n, poi) in outcome.pois.iter().enumerate() {
        let obj = &engine.prepared().dataset[poi.id];
        let (x, y) = to_cell(obj.location.lat, obj.location.lon);
        let marker = if poi.recommended {
            char::from_digit((n % 10) as u32, 10).unwrap_or('G')
        } else {
            'o'
        };
        grid[y][x] = marker;
        labels.push((marker, poi));
    }
    println!("┌{}┐", "─".repeat(MAP_W));
    for row in &grid {
        println!("│{}│", row.iter().collect::<String>());
    }
    println!("└{}┘", "─".repeat(MAP_W));
    println!("digits = recommended by the LLM (green)   o = fetched but filtered out (blue)\n");

    // --- top recommendation panel (left of the map in the real UI) ---
    if let Some(top) = outcome.pois.iter().find(|p| p.recommended) {
        let obj = &engine.prepared().dataset[top.id];
        println!("top recommendation: {}", top.name);
        println!(
            "  categories: {}",
            obj.attrs
                .get("categories")
                .map(|v| v.flatten())
                .unwrap_or_default()
        );
        println!(
            "  address:    {}, {}",
            obj.attrs.get_text("address").unwrap_or("?"),
            obj.attrs.get_text("suburb").unwrap_or("?")
        );
        println!(
            "  summary:    {}",
            obj.attrs.get_text("tip_summary").unwrap_or("-")
        );
        println!("  why:        {}\n", top.reason);
    } else {
        println!("the LLM recommended nothing for this query in this suburb\n");
    }

    // --- POI detail list (bottom of the real UI) ---
    println!("all markers:");
    for (marker, poi) in &labels {
        println!(
            "  [{marker}] {:<26} {}",
            poi.name,
            if poi.recommended {
                poi.reason.to_string()
            } else {
                "filtered out by the LLM".to_owned()
            }
        );
    }
    println!(
        "\nlatency: filtering {:.1} ms (measured) + refinement {:.0} ms (simulated LLM)",
        outcome.latency.filtering_ms, outcome.latency.refinement_ms
    );

    // Export the map as GeoJSON (open on geojson.io to see the real map
    // view of Figure 3 with green/blue markers).
    let geojson = outcome.to_geojson(&engine.prepared().dataset);
    let path = std::env::temp_dir().join("semask_demo.geojson");
    if std::fs::write(&path, serde_json::to_string_pretty(&geojson).unwrap()).is_ok() {
        println!("map exported to {}", path.display());
    }
}

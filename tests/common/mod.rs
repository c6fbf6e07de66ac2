//! Cost coefficients the parity suites share. A planner prices every
//! strategy with `PlannerConfig::coefficients`; these sets price some
//! strategies out of reach (or bring one closer) to pin a route. Every
//! suite that depends on a particular route asserts it, so a change to
//! these values (or to the formulas) fails loudly rather than silently
//! testing another strategy.

#![allow(dead_code)] // each suite uses a subset

use semask::{Coefficients, SemaSkConfig};

/// A coefficient no query of these suites can afford.
const PRICED_OUT: f64 = 1e7;

/// Everything on the exact scan: grid cells, candidate collection and
/// HNSW hops are priced out, which leaves the grid and the graph
/// millions of microseconds behind the scan for any range. Answers
/// are then a function of the corpus alone, whichever engine instance
/// computed them.
pub fn exact_only_config() -> SemaSkConfig {
    let mut config = SemaSkConfig::default();
    config.planner.coefficients = Coefficients {
        cell_us: PRICED_OUT,
        gen_us: PRICED_OUT,
        hop_us: PRICED_OUT,
        ..Coefficients::default()
    };
    config
}

/// Only the grid prefilter: the geo mask and HNSW hops are priced out,
/// and the IR-tree is no planner route.
pub fn prefilter_only() -> Coefficients {
    Coefficients {
        mask_us: PRICED_OUT,
        hop_us: PRICED_OUT,
        ..Coefficients::default()
    }
}

/// Routes by selectivity on the few-hundred-POI cities of these suites:
/// the defaults with a cheap HNSW hop, so a range holding most of the
/// city lands on the graph, a selective one on a prefilter, and keyword
/// queries (which the graph cannot serve exactly) never on the graph.
pub fn banded() -> Coefficients {
    Coefficients {
        hop_us: 0.05,
        ..Coefficients::default()
    }
}

/// A plain alphabetic word of at least four letters from object
/// `index`'s document: a keyword filter that matches something.
pub fn corpus_word(dataset: &geotext::Dataset, index: usize) -> String {
    dataset.objects()[index]
        .to_document()
        .split_whitespace()
        .find(|w| w.len() >= 4 && w.chars().all(char::is_alphabetic))
        .expect("a plain corpus word")
        .to_owned()
}

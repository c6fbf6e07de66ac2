//! Seeded input generators: request shapes, Zipf draws, mutations.
//!
//! Everything here is plain data made from `--seed`; the system under
//! test only ever sees the generated inputs. The same seed gives the
//! same bytes, a different seed different ones (pinned by the tests
//! below). The world itself is *not* seeded from here — its seed is the
//! dataset's identity and lives in `sut.rs`.

/// SplitMix64: small, fast, and good enough for workload shapes. Own
/// code rather than a crate so a generated request list never changes
/// under the ledger when a dependency does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn between(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One spatial keyword query as plain data: the range `q.r`, the text
/// `q.T`, and an optional conjunctive keyword filter.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub min_lat: f64,
    pub min_lon: f64,
    pub max_lat: f64,
    pub max_lon: f64,
    pub text: String,
    pub keyword: Option<String>,
}

impl Query {
    pub fn contains(&self, lat: f64, lon: f64) -> bool {
        lat >= self.min_lat && lat <= self.max_lat && lon >= self.min_lon && lon <= self.max_lon
    }
}

/// What the generators need to know about the world: where it is and
/// which texts its users ask.
#[derive(Debug, Clone)]
pub struct Terrain {
    pub center_lat: f64,
    pub center_lon: f64,
    /// Bounding box of every POI: `[min_lat, min_lon, max_lat, max_lon]`.
    pub bounds: [f64; 4],
    /// Query texts (the paper-protocol queries' texts).
    pub texts: Vec<String>,
}

const KM_PER_DEG_LAT: f64 = 111.195;

fn km_per_deg_lon(lat: f64) -> f64 {
    KM_PER_DEG_LAT * lat.to_radians().cos()
}

/// The box of `width_km` × `height_km` around a point:
/// `[min_lat, min_lon, max_lat, max_lon]`.
fn box_around(lat: f64, lon: f64, width_km: f64, height_km: f64) -> [f64; 4] {
    let half_h = height_km / 2.0 / KM_PER_DEG_LAT;
    let half_w = width_km / 2.0 / km_per_deg_lon(lat);
    [lat - half_h, lon - half_w, lat + half_h, lon + half_w]
}

impl Terrain {
    /// The box of `width_km` × `height_km` centred `north_km`/`east_km`
    /// away from the world's centre.
    pub fn box_km(&self, north_km: f64, east_km: f64, width_km: f64, height_km: f64) -> [f64; 4] {
        let lat = self.center_lat + north_km / KM_PER_DEG_LAT;
        let lon = self.center_lon + east_km / km_per_deg_lon(lat);
        box_around(lat, lon, width_km, height_km)
    }
}

/// A query over `range` (`[min_lat, min_lon, max_lat, max_lon]`).
pub fn query_over(range: [f64; 4], text: &str, keyword: Option<&str>) -> Query {
    Query {
        min_lat: range[0],
        min_lon: range[1],
        max_lat: range[2],
        max_lon: range[3],
        text: text.to_owned(),
        keyword: keyword.map(str::to_owned),
    }
}

/// Request centres are jittered this far (per axis) from the centre.
pub const JITTER_KM: f64 = 8.0;

/// One-word keyword filters. The first fifteen occur in the generated
/// corpus; the last does not, so one keyword request in sixteen is
/// answerable from the negative cache.
pub const KEYWORDS: [&str; 16] = [
    "coffee",
    "pizza",
    "beer",
    "tacos",
    "sushi",
    "brunch",
    "music",
    "patio",
    "vegan",
    "burgers",
    "cocktails",
    "bakery",
    "wine",
    "breakfast",
    "friendly",
    "zzyzxqua",
];

/// Size of the request pool `wire-zipf` draws from (4x its cache).
pub const ZIPF_POOL: usize = 4096;
/// Zipf exponent of `wire-zipf`.
pub const ZIPF_EXPONENT: f64 = 1.1;

/// The `i`-th request of the mixed wire shape — a pure function of
/// `(seed, i)`, so request lists of any length agree on their common
/// prefix. 70 % narrow 2 km boxes, 20 % the paper's 5 km, 10 % the whole
/// metro; 20 % carry a one-word keyword filter. Every range is distinct
/// (whole-metro ranges get a random margin), so nothing is shared
/// between requests unless a workload repeats an index on purpose.
pub fn mixed_request(terrain: &Terrain, seed: u64, i: u64) -> Query {
    let mut rng = Rng::new(seed ^ i.wrapping_mul(0xd6e8_feb8_6659_fd93));
    rng.next_u64();
    let north = rng.between(-JITTER_KM, JITTER_KM);
    let east = rng.between(-JITTER_KM, JITTER_KM);
    let band = rng.unit();
    let range = if band < 0.7 {
        terrain.box_km(north, east, 2.0, 2.0)
    } else if band < 0.9 {
        terrain.box_km(north, east, 5.0, 5.0)
    } else {
        let margin = rng.between(0.001, 0.01);
        let b = terrain.bounds;
        [b[0] - margin, b[1] - margin, b[2] + margin, b[3] + margin]
    };
    let text = &terrain.texts[rng.below(terrain.texts.len())];
    let keyword = (rng.unit() < 0.2).then(|| KEYWORDS[rng.below(KEYWORDS.len())]);
    query_over(range, text, keyword)
}

/// A 5 km box at a jittered centre with no keyword: what the reader of
/// `durable-mixed` asks.
pub fn reader_request(terrain: &Terrain, seed: u64, i: u64) -> Query {
    let mut rng = Rng::new(seed ^ 0x5eed_0000 ^ i.wrapping_mul(0xa076_1d64_78bd_642f));
    rng.next_u64();
    let north = rng.between(-JITTER_KM, JITTER_KM);
    let east = rng.between(-JITTER_KM, JITTER_KM);
    let text = &terrain.texts[rng.below(terrain.texts.len())];
    query_over(terrain.box_km(north, east, 5.0, 5.0), text, None)
}

/// A box of `edge_km` around a point, asking for `text`: how the
/// read-your-writes check looks a written POI up. `keyword` narrows the
/// answer to documents holding that word.
pub fn lookup_request(
    lat: f64,
    lon: f64,
    edge_km: f64,
    text: &str,
    keyword: Option<&str>,
) -> Query {
    query_over(box_around(lat, lon, edge_km, edge_km), text, keyword)
}

/// Draws ranks from a Zipf distribution over `0..n` by inverting a
/// precomputed CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for rank in 1..=n {
            sum += 1.0 / (rank as f64).powf(exponent);
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        Self { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One write as plain data.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    Insert {
        name: String,
        lat: f64,
        lon: f64,
        categories: Vec<String>,
        tips: Vec<String>,
    },
    UpdateTips {
        id: u32,
        tips: Vec<String>,
    },
    Delete {
        id: u32,
    },
}

const NAME_HEADS: [&str; 8] = [
    "Quillon", "Brindle", "Marrow", "Tamsin", "Oriel", "Fennick", "Sorrel", "Halcyon",
];
const NAME_TAILS: [&str; 8] = [
    "Teahouse",
    "Cantina",
    "Bakehouse",
    "Noodle Bar",
    "Taproom",
    "Creamery",
    "Bookshop",
    "Deli",
];
const CATEGORY_POOL: [&str; 8] = [
    "Restaurants",
    "Cafes",
    "Bars",
    "Bakeries",
    "Nightlife",
    "Desserts",
    "Shopping",
    "Breakfast & Brunch",
];
const TIP_POOL: [&str; 12] = [
    "Great espresso and the staff remember your order.",
    "Gets crowded after work but the patio is worth the wait.",
    "Try the house special, it sells out by noon.",
    "Quiet corner tables, good for reading.",
    "Live music on Fridays and a solid beer list.",
    "Cash only, and the line moves fast.",
    "The dumplings are handmade and cheap.",
    "Friendly owners and generous portions.",
    "Vegan options are clearly marked on the menu.",
    "Open late, perfect after a show.",
    "Parking is tricky, walk if you can.",
    "Kids menu and plenty of high chairs.",
];

/// An endless stream of writes against a world of `base_pois` POIs:
/// 5/8 inserts, 2/8 tip updates, 1/8 deletes. Updates touch even base
/// ids and deletes consume odd base ids in a shuffled order without
/// repeats, so no write is ever invalid and a sampled insert or delete
/// is never undone by a later write. The stream ends when the odd ids
/// run out (8x the world size in writes).
#[derive(Debug, Clone)]
pub struct MutationStream {
    rng: Rng,
    terrain_center: (f64, f64),
    base_pois: u32,
    delete_order: Vec<u32>,
    issued: u64,
    tag: u64,
}

impl MutationStream {
    pub fn new(terrain: &Terrain, base_pois: u32, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x6d75_7461_7465);
        let mut delete_order: Vec<u32> = (0..base_pois).filter(|id| id % 2 == 1).collect();
        rng.shuffle(&mut delete_order);
        Self {
            rng,
            terrain_center: (terrain.center_lat, terrain.center_lon),
            base_pois,
            delete_order,
            issued: 0,
            tag: seed,
        }
    }

    fn tips(&mut self) -> Vec<String> {
        (0..3)
            .map(|_| TIP_POOL[self.rng.below(TIP_POOL.len())].to_owned())
            .collect()
    }
}

impl Iterator for MutationStream {
    type Item = Mutation;

    fn next(&mut self) -> Option<Mutation> {
        let n = self.issued;
        self.issued += 1;
        Some(match n % 8 {
            7 => Mutation::Delete {
                id: self.delete_order.pop()?,
            },
            2 | 5 => Mutation::UpdateTips {
                id: 2 * self.rng.below((self.base_pois as usize).div_ceil(2)) as u32,
                tips: self.tips(),
            },
            _ => {
                let lat = self.terrain_center.0
                    + self.rng.between(-JITTER_KM, JITTER_KM) / KM_PER_DEG_LAT;
                let lon = self.terrain_center.1
                    + self.rng.between(-JITTER_KM, JITTER_KM) / km_per_deg_lon(lat);
                // The tag makes the name unique in the world, so a
                // lookup by name has exactly one right answer.
                let name = format!(
                    "{} {} x{}n{}",
                    NAME_HEADS[self.rng.below(NAME_HEADS.len())],
                    NAME_TAILS[self.rng.below(NAME_TAILS.len())],
                    self.tag,
                    n
                );
                let categories =
                    vec![CATEGORY_POOL[self.rng.below(CATEGORY_POOL.len())].to_owned()];
                Mutation::Insert {
                    name,
                    lat,
                    lon,
                    categories,
                    tips: self.tips(),
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn terrain() -> Terrain {
        Terrain {
            center_lat: 39.96,
            center_lon: -83.0,
            bounds: [39.86, -83.12, 40.06, -82.88],
            texts: (0..7).map(|i| format!("query text {i}")).collect(),
        }
    }

    /// A byte-exact fingerprint of a generated list.
    fn bytes<T: std::fmt::Debug>(items: &[T]) -> String {
        format!("{items:?}")
    }

    #[test]
    fn requests_repeat_for_a_seed_and_differ_across_seeds() {
        let t = terrain();
        let list = |seed| -> Vec<Query> { (0..200).map(|i| mixed_request(&t, seed, i)).collect() };
        assert_eq!(bytes(&list(1)), bytes(&list(1)));
        assert_ne!(bytes(&list(1)), bytes(&list(2)));
        let readers =
            |seed| -> Vec<Query> { (0..50).map(|i| reader_request(&t, seed, i)).collect() };
        assert_eq!(bytes(&readers(3)), bytes(&readers(3)));
        assert_ne!(bytes(&readers(3)), bytes(&readers(4)));
    }

    #[test]
    fn mixed_requests_have_the_declared_shape() {
        let t = terrain();
        let list: Vec<Query> = (0..4000).map(|i| mixed_request(&t, 9, i)).collect();
        let whole = list.iter().filter(|q| q.min_lat < t.bounds[0]).count();
        let keyword = list.iter().filter(|q| q.keyword.is_some()).count();
        assert!(
            (300..500).contains(&whole),
            "whole-metro share {whole}/4000"
        );
        assert!(
            (650..950).contains(&keyword),
            "keyword share {keyword}/4000"
        );
        // Distinct ranges: nothing for a cache or a batch group to share.
        let mut ranges: Vec<String> = list
            .iter()
            .map(|q| format!("{:?}", (q.min_lat, q.min_lon, q.max_lat, q.max_lon)))
            .collect();
        ranges.sort();
        ranges.dedup();
        assert_eq!(ranges.len(), list.len());
        for q in &list {
            assert!(q.min_lat < q.max_lat && q.min_lon < q.max_lon);
        }
    }

    #[test]
    fn zipf_repeats_for_a_seed_and_is_skewed() {
        let zipf = Zipf::new(ZIPF_POOL, ZIPF_EXPONENT);
        let draws = |seed| -> Vec<usize> {
            let mut rng = Rng::new(seed);
            (0..20_000).map(|_| zipf.draw(&mut rng)).collect()
        };
        assert_eq!(draws(5), draws(5));
        assert_ne!(draws(5), draws(6));
        let d = draws(5);
        assert!(d.iter().all(|&r| r < ZIPF_POOL));
        let head = d.iter().filter(|&&r| r < 1024).count() as f64 / d.len() as f64;
        assert!(head > 0.75, "top quarter of the pool draws {head}");
    }

    #[test]
    fn mutations_repeat_for_a_seed_and_never_conflict() {
        let t = terrain();
        let list =
            |seed| -> Vec<Mutation> { MutationStream::new(&t, 4000, seed).take(1024).collect() };
        assert_eq!(bytes(&list(1)), bytes(&list(1)));
        assert_ne!(bytes(&list(1)), bytes(&list(2)));
        let mut deleted = std::collections::HashSet::new();
        let (mut inserts, mut updates) = (0, 0);
        for m in list(1) {
            match m {
                Mutation::Insert { name, .. } => {
                    inserts += 1;
                    assert!(!name.trim().is_empty());
                }
                Mutation::UpdateTips { id, .. } => {
                    updates += 1;
                    assert!(id % 2 == 0 && id < 4000);
                }
                Mutation::Delete { id } => {
                    assert!(id % 2 == 1 && id < 4000);
                    assert!(deleted.insert(id), "id {id} deleted twice");
                }
            }
        }
        assert_eq!((inserts, updates, deleted.len()), (640, 256, 128));
    }
}

//! The semantic embedding simulator.

use concepts::hash::{fnv1a, mix};
use concepts::{ConceptDetector, FidelityProfile};
use textindex::tokenizer::{stem_into, Tokenizer};

use crate::hashvec::{normalize, KeyVectorMemo};
use crate::Embedder;

/// Configuration of the [`SemanticEmbedder`].
#[derive(Debug, Clone)]
pub struct EmbedderConfig {
    /// Output dimensionality. The paper's `text-embedding-3-small` is
    /// 1,536-d; 256 is the default here (same behaviour, cheaper — the
    /// dimension ablation bench covers the trade-off).
    pub dim: usize,
    /// Weight of a detected concept's vector.
    pub concept_weight: f32,
    /// Weight of concepts implied by a detected concept.
    pub implied_weight: f32,
    /// Weight of the lexical (hashed bag-of-words) channel per token.
    pub token_weight: f32,
    /// Detection fidelity (use [`FidelityProfile::embedding_small`] for
    /// the paper's setting).
    pub profile: FidelityProfile,
}

impl Default for EmbedderConfig {
    fn default() -> Self {
        Self {
            dim: 256,
            concept_weight: 1.0,
            implied_weight: 0.5,
            token_weight: 0.18,
            profile: FidelityProfile::embedding_small(),
        }
    }
}

/// The simulated `text-embedding-3-small`: a semantic concept channel at
/// imperfect fidelity plus a lexical hashing channel (see the crate docs).
pub struct SemanticEmbedder {
    config: EmbedderConfig,
    detector: ConceptDetector,
    /// The lexical channel's tokenizer; only its stopword list is read,
    /// because the detector's raw token stream feeds both channels.
    lexical: Tokenizer,
    /// Salt separating concept keys from token keys in vector space.
    concept_salt: u64,
    memo: KeyVectorMemo,
}

impl SemanticEmbedder {
    /// Creates an embedder with the given configuration.
    #[must_use]
    pub fn new(config: EmbedderConfig) -> Self {
        let memo = KeyVectorMemo::new(config.dim);
        Self::with_memo(config, memo)
    }

    fn with_memo(config: EmbedderConfig, memo: KeyVectorMemo) -> Self {
        Self {
            config,
            detector: ConceptDetector::builtin(),
            lexical: Tokenizer::new(),
            concept_salt: 0x00c0_ce97_u64,
            memo,
        }
    }

    /// The paper-default embedder.
    #[must_use]
    pub fn default_model() -> Self {
        Self::new(EmbedderConfig::default())
    }

    /// The embedder's configuration.
    #[must_use]
    pub fn config(&self) -> &EmbedderConfig {
        &self.config
    }

    /// Bytes held by the key-vector memo (see `crate::hashvec`) — the
    /// embedder's, not any collection's.
    #[must_use]
    pub fn memo_bytes(&self) -> usize {
        self.memo.bytes()
    }

    /// Key vectors the memo holds.
    #[must_use]
    pub fn memo_rows(&self) -> usize {
        self.memo.rows()
    }
}

impl Embedder for SemanticEmbedder {
    fn embed(&self, text: &str) -> Vec<f32> {
        // One pass over the text: each raw token's stem goes to concept
        // detection; a token the lexical tokenizer keeps (not a
        // stopword, a non-empty stem) is stemmed a second time for its
        // lexical key. The second stemming is deliberate: it is what
        // every stored vector was built with (the golden hashes in the
        // crate tests pin it), and dropping it would change them all.
        let mut token_keys: Vec<u64> = Vec::new();
        let mut again = String::new();
        let mut lexical_key = |token: &str, stem: &str| {
            if !stem.is_empty() && !self.lexical.is_stopword(token) {
                again.clear();
                stem_into(stem, &mut again);
                token_keys.push(fnv1a(again.as_bytes()));
            }
        };
        let mut reader = self.detector.reader();
        reader.push_with(text, &mut lexical_key);
        let reading = reader.finish_with(&mut lexical_key);

        // Semantic channel: noisy concept detections.
        let detections = self
            .detector
            .detect_noisy_reading(&reading, &self.config.profile);
        let mut terms: Vec<(u64, f32)> =
            Vec::with_capacity(detections.len() * 3 + token_keys.len());
        for d in &detections {
            // Diminishing returns on repeated mentions.
            let strength = 1.0 + (d.occurrences as f32).ln();
            terms.push((
                mix(&[self.concept_salt, u64::from(d.concept.0)]),
                self.config.concept_weight * strength,
            ));
            for &imp in self.detector.ontology().implied(d.concept) {
                terms.push((
                    mix(&[self.concept_salt, u64::from(imp.0)]),
                    self.config.implied_weight * strength,
                ));
            }
        }

        // Lexical channel: hashed stemmed tokens, dampened by length so
        // long documents don't drown the semantic signal.
        if !token_keys.is_empty() {
            let damp = self.config.token_weight / (token_keys.len() as f32).sqrt();
            terms.extend(token_keys.iter().map(|&key| (key, damp)));
        }

        let mut acc = vec![0.0f32; self.config.dim];
        self.memo.accumulate(&terms, &mut acc);
        normalize(&mut acc);
        acc
    }

    fn dim(&self) -> usize {
        self.config.dim
    }

    fn name(&self) -> &str {
        "semantic-sim"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosine;

    fn emb() -> SemanticEmbedder {
        SemanticEmbedder::default_model()
    }

    #[test]
    fn deterministic() {
        let e = emb();
        let t = "cozy cafe with single origin pour overs";
        assert_eq!(e.embed(t), e.embed(t));
    }

    #[test]
    fn output_is_normalized() {
        let e = emb();
        let v = e.embed("sports bar with wings and big screens");
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-5);
        assert_eq!(v.len(), 256);
    }

    #[test]
    fn paraphrase_similarity_beats_unrelated() {
        let e = emb();
        // Same concept expressed with disjoint words.
        let q = e.embed("big screens on every wall, packed on game day");
        let poi = e.embed("sports bar where you can watch football");
        let other = e.embed("gel sets that last weeks, colors for days");
        let s_same = cosine(&q, &poi);
        let s_diff = cosine(&q, &other);
        assert!(
            s_same > s_diff + 0.2,
            "same-concept {s_same} vs unrelated {s_diff}"
        );
    }

    #[test]
    fn implied_concepts_pull_specific_towards_general() {
        let e = emb();
        let espresso = e.embed("perfectly pulled shots of espresso");
        let coffee = e.embed("coffee");
        let tires = e.embed("tire shop");
        assert!(cosine(&espresso, &coffee) > cosine(&espresso, &tires));
    }

    #[test]
    fn lexical_channel_gives_nonzero_similarity_without_concepts() {
        let e = emb();
        // No ontology concepts in these, but shared words.
        let a = e.embed("purple wildebeest convention");
        let b = e.embed("annual wildebeest convention downtown");
        assert!(cosine(&a, &b) > 0.3);
    }

    #[test]
    fn custom_dim_respected() {
        let e = SemanticEmbedder::new(EmbedderConfig {
            dim: 1536,
            ..EmbedderConfig::default()
        });
        assert_eq!(e.embed("coffee").len(), 1536);
        assert_eq!(e.dim(), 1536);
    }

    #[test]
    fn empty_text_is_zero_vector() {
        let e = emb();
        assert!(e.embed("").iter().all(|&x| x == 0.0));
    }

    // ---- the same bits, whatever the memo holds ----

    /// This module's and `hashvec`'s test texts, plus the edge cases of
    /// tokenization, and one 10,000-token text.
    fn golden_texts() -> Vec<String> {
        let mut texts: Vec<String> = [
            "cozy cafe with single origin pour overs",
            "sports bar with wings and big screens",
            "big screens on every wall, packed on game day",
            "sports bar where you can watch football",
            "gel sets that last weeks, colors for days",
            "perfectly pulled shots of espresso",
            "coffee",
            "tire shop",
            "purple wildebeest convention",
            "annual wildebeest convention downtown",
            "fresh sushi rolls with salmon",
            "sushi rolls made with fresh salmon",
            "oil change and tire rotation",
            "watch the game on big screens",
            "sports bar with football on tv",
            "",
            "the and of a to in is I am looking for",
            "İstanbul ÇAFÉ's",
            "ß straße",
            "Mike's O'Brien's rock'n'roll 'quoted' ’curly’ 24/7 café 3rd 1,000 x2",
            "nessness ness happiness stopped berries dishes",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let words = [
            "espresso",
            "pizzas",
            "watching",
            "the",
            "wildebeest",
            "quietness",
            "dumplings",
            "happiness",
            "sports",
            "bar",
        ];
        let long: Vec<String> = (0..10_000)
            .map(|i| {
                if i % 3 == 0 {
                    format!("{}{}", words[i % words.len()], i % 1000)
                } else {
                    words[i % words.len()].to_owned()
                }
            })
            .collect();
        texts.push(long.join(" "));
        texts
    }

    /// FNV-1a over the bits of every embedding of `texts`, in order.
    fn bits_hash(e: &dyn Embedder, texts: &[String]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for t in texts {
            for x in e.embed(t) {
                for b in x.to_bits().to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// Recorded before key vectors were memoised and before a text was
    /// tokenized once: every stored vector in every snapshot was built
    /// with these bits. Each embedder is hashed cold, then warm.
    #[test]
    fn golden_embedding_bits() {
        const SEMANTIC: u64 = 0x8573_3ed7_5535_3836;
        const HASH: u64 = 0x7219_650a_f06b_0f78;
        let texts = golden_texts();
        let semantic = emb();
        let hash = crate::HashEmbedder::new(256);
        for pass in ["cold", "warm"] {
            assert_eq!(bits_hash(&semantic, &texts), SEMANTIC, "semantic, {pass}");
            assert_eq!(bits_hash(&hash, &texts), HASH, "hash-bow, {pass}");
        }
        assert!(semantic.memo_rows() > 1_000);
    }

    /// An embedder whose memo holds at most `rows` key vectors.
    fn with_rows(rows: usize) -> SemanticEmbedder {
        let config = EmbedderConfig::default();
        let memo = KeyVectorMemo::with_budget(config.dim, rows * config.dim * 4);
        SemanticEmbedder::with_memo(config, memo)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Words concept detection finds, stopwords, a word that stems to
    /// nothing, apostrophes, non-ASCII — and, through the numbered
    /// words, keys no text has used before.
    fn arb_text() -> impl proptest::Strategy<Value = String> {
        use proptest::prelude::*;
        const WORDS: &[&str] = &[
            "espresso", "coffee", "big", "screens", "on", "every", "wall", "pizza", "the", "I'm",
            "ness", "Café", "straße", "wings", "tacos", "vegan", "quiet",
        ];
        prop::collection::vec((0usize..WORDS.len() + 4, 0u32..50_000), 0..40).prop_map(|words| {
            let words: Vec<String> = words
                .into_iter()
                .map(|(w, n)| match WORDS.get(w) {
                    Some(word) => (*word).to_owned(),
                    None => format!("w{n}"),
                })
                .collect();
            words.join(" ")
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn embed_bits_do_not_depend_on_the_memo(
            texts in proptest::collection::vec(arb_text(), 1..8),
        ) {
            // No room at all: every key is computed on every call.
            let reference = with_rows(0);
            let memoised = emb();
            let saturated = with_rows(16);
            saturated.embed("w1 w2 w3 w4 w5 w6 w7 w8 w9 w10 w11 w12 w13 w14 w15 w16 w17 w18");
            proptest::prop_assert_eq!(saturated.memo_rows(), 16);
            for t in &texts {
                let expected = bits(&reference.embed(t));
                proptest::prop_assert_eq!(&bits(&memoised.embed(t)), &expected, "cold {:?}", t);
                proptest::prop_assert_eq!(&bits(&memoised.embed(t)), &expected, "warm {:?}", t);
                proptest::prop_assert_eq!(&bits(&saturated.embed(t)), &expected, "saturated {:?}", t);
            }
            proptest::prop_assert_eq!(reference.memo_rows(), 0);
            proptest::prop_assert_eq!(saturated.memo_rows(), 16);
        }
    }

    /// Four threads embedding into one memo — shared hits, racing misses,
    /// and a memo filling up under them — give what one thread gives,
    /// and the memo stops at its bound.
    #[test]
    fn concurrent_embeds_equal_one_thread() {
        let texts: Vec<String> = golden_texts()
            .into_iter()
            .take(21)
            .chain((0..200).map(|i| format!("coffee w{i} w{} pizza w{}", i * 7, i % 13)))
            .collect();
        let alone = with_rows(0);
        let expected: Vec<Vec<u32>> = texts.iter().map(|t| bits(&alone.embed(t))).collect();
        for rows in [16_384, 64] {
            let shared = with_rows(rows);
            std::thread::scope(|scope| {
                for offset in 0..4 {
                    let (shared, texts, expected) = (&shared, &texts, &expected);
                    scope.spawn(move || {
                        for i in 0..texts.len() {
                            let j = (i * 7 + offset * 53) % texts.len();
                            assert_eq!(bits(&shared.embed(&texts[j])), expected[j], "{j}");
                        }
                    });
                }
            });
            assert!(shared.memo_rows() <= rows);
            assert!(shared.memo_bytes() > 0);
        }
    }

    #[test]
    fn the_memo_is_bounded_by_its_budget() {
        let e = emb();
        let words: Vec<String> = (0..20_000).map(|i| format!("w{i}")).collect();
        e.embed(&words.join(" "));
        let max_rows = crate::hashvec::MEMO_BUDGET_BYTES / (256 * 4);
        assert_eq!(e.memo_rows(), max_rows);
        let arena_and_index = crate::hashvec::MEMO_BUDGET_BYTES + max_rows * 2 * 13;
        assert!(e.memo_bytes() <= arena_and_index, "{}", e.memo_bytes());
    }
}

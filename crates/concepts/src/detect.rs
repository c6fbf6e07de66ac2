//! Concept detection: mapping text onto ontology concepts.
//!
//! Detection is phrase matching over stemmed tokens. Run with
//! [`ConceptDetector::detect`] it is exact and defines ground truth; run
//! with [`ConceptDetector::detect_noisy`] it simulates an imperfect model
//! through a [`FidelityProfile`] — deterministic per (text, concept,
//! model), so the simulated world is stable across pipeline stages.
//!
//! The phrase index is interned. [`ConceptDetector::new`] numbers every
//! stem that occurs in an ontology phrase (a dense `u32` id), stores each
//! phrase as its stems' ids, and files the phrases in a `Vec` indexed by
//! the id of their first stem. Detection looks each of the text's stems
//! up once — one hash map with a small local multiply–rotate hasher, not
//! SipHash — and a stem outside the vocabulary gets a sentinel id, which
//! starts no phrase and equals no phrase token. Matching a phrase is then
//! a comparison of `u32` slices.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use textindex::tokenizer::{stem_into, Tokenizer};

use crate::concept::ConceptId;
use crate::hash::{fnv1a, mix, unit_float};
use crate::ontology::Ontology;

/// One detected concept occurrence in a text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// The detected concept.
    pub concept: ConceptId,
    /// Whether the match came from a surface term (vs a paraphrase).
    pub via_surface: bool,
    /// Number of matching phrase occurrences in the text.
    pub occurrences: u32,
}

/// How reliably a simulated model recovers concepts from text.
///
/// The *ordering* of these profiles is what reproduces the paper's
/// Table 2: surface matching is easy for everyone; paraphrase
/// understanding separates the models.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityProfile {
    /// Display name of the profile (used in logs and experiment output).
    pub name: &'static str,
    /// Probability of recovering a concept mentioned via a surface term.
    pub surface_recall: f64,
    /// Probability of recovering a concept mentioned only via paraphrase.
    pub paraphrase_recall: f64,
    /// Probability (per draw, 3 draws) of hallucinating an unrelated
    /// concept.
    pub hallucination_rate: f64,
    /// Salt separating this model's noise stream from other models'.
    pub salt: u64,
}

impl FidelityProfile {
    /// Perfect detection — the ground-truth annotator.
    #[must_use]
    pub fn perfect() -> Self {
        Self {
            name: "ground-truth",
            surface_recall: 1.0,
            paraphrase_recall: 1.0,
            hallucination_rate: 0.0,
            salt: 0,
        }
    }

    /// The small embedding model (`text-embedding-3-small` stand-in):
    /// good surface recall, mediocre paraphrase understanding, a little
    /// noise. This is why SemaSK-EM plateaus around F1 0.28 and why the
    /// paper adds LLM refinement.
    #[must_use]
    pub fn embedding_small() -> Self {
        Self {
            name: "embedding-small",
            surface_recall: 0.95,
            paraphrase_recall: 0.55,
            hallucination_rate: 0.08,
            salt: 0x1111,
        }
    }

    /// GPT-4o stand-in: near-perfect semantics, minimal noise.
    #[must_use]
    pub fn gpt4o() -> Self {
        Self {
            name: "gpt-4o",
            surface_recall: 0.99,
            paraphrase_recall: 0.80,
            hallucination_rate: 0.04,
            salt: 0x4040,
        }
    }

    /// o1-mini stand-in: comparable to GPT-4o but with a different noise
    /// stream and slightly lower paraphrase recall — matching the paper's
    /// finding that "despite being a newer model, OpenAI o1-mini is not
    /// better for the spatial keyword query task".
    #[must_use]
    pub fn o1_mini() -> Self {
        Self {
            name: "o1-mini",
            surface_recall: 0.985,
            paraphrase_recall: 0.76,
            hallucination_rate: 0.05,
            salt: 0x0101,
        }
    }

    /// GPT-3.5 Turbo stand-in (used for tip summarization in the paper —
    /// cheaper, a bit less reliable).
    #[must_use]
    pub fn gpt35_turbo() -> Self {
        Self {
            name: "gpt-3.5-turbo",
            surface_recall: 0.98,
            paraphrase_recall: 0.82,
            hallucination_rate: 0.03,
            salt: 0x3535,
        }
    }
}

/// The stemmed token sequence of one text, in one buffer — what
/// detection matches phrases against. Every raw token (lower-cased, no
/// stopwords removed) contributes its stem, empty stems included, so a
/// phrase never matches across a word that stemmed away.
#[derive(Debug, Default)]
pub struct Stems {
    buf: String,
    ends: Vec<usize>,
}

impl Stems {
    /// Appends the stem of the raw token `token` and returns it.
    pub fn push(&mut self, token: &str) -> &str {
        let start = self.buf.len();
        stem_into(token, &mut self.buf);
        self.ends.push(self.buf.len());
        &self.buf[start..]
    }

    /// Number of stems.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are no stems.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The `i`-th stem.
    #[must_use]
    pub fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.buf[start..self.ends[i]]
    }

    /// The stems in order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// The id of a stem that occurs in no ontology phrase.
const UNKNOWN: u32 = u32::MAX;

/// A multiply–rotate hash over 8-byte words, in the style of rustc's
/// `FxHasher`. The keys are stems the detector itself interned, so no
/// adversary picks them; SipHash's collision resistance buys nothing.
#[derive(Default)]
struct StemHasher(u64);

impl StemHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for StemHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.add(u64::from_le_bytes(tail));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One ontology phrase, as the ids of its stems.
struct PhraseRef {
    tokens: Box<[u32]>,
    concept: ConceptId,
    surface: bool,
}

/// Detects ontology concepts in free text via stemmed phrase matching.
pub struct ConceptDetector {
    ontology: &'static Ontology,
    /// Stem → its id: every stem of every phrase, numbered densely.
    stem_ids: HashMap<Box<str>, u32, BuildHasherDefault<StemHasher>>,
    /// Stem id → the phrases starting with that stem.
    index: Vec<Vec<PhraseRef>>,
    tokenizer: Tokenizer,
}

impl ConceptDetector {
    /// Builds a detector over the given ontology.
    #[must_use]
    pub fn new(ontology: &'static Ontology) -> Self {
        let tokenizer = Tokenizer::raw();
        let mut stem_ids: HashMap<Box<str>, u32, BuildHasherDefault<StemHasher>> =
            HashMap::default();
        let mut index: Vec<Vec<PhraseRef>> = Vec::new();
        for c in ontology.concepts() {
            for (phrases, surface) in [(c.surface, true), (c.paraphrases, false)] {
                for phrase in phrases {
                    let tokens: Box<[u32]> = stems_of(&tokenizer, phrase)
                        .iter()
                        .map(|stem| {
                            let next = stem_ids.len() as u32;
                            *stem_ids.entry(stem.into()).or_insert(next)
                        })
                        .collect();
                    let Some(&first) = tokens.first() else {
                        continue;
                    };
                    if index.len() <= first as usize {
                        index.resize_with(first as usize + 1, Vec::new);
                    }
                    let bucket = &mut index[first as usize];
                    // Different raw phrases can stem to the same token
                    // sequence ("pizza"/"pizzas"); keep one entry, with
                    // surface-ness sticky.
                    if let Some(existing) = bucket
                        .iter_mut()
                        .find(|p| p.concept == c.id && p.tokens == tokens)
                    {
                        existing.surface |= surface;
                        continue;
                    }
                    bucket.push(PhraseRef {
                        tokens,
                        concept: c.id,
                        surface,
                    });
                }
            }
        }
        Self {
            ontology,
            stem_ids,
            index,
            tokenizer,
        }
    }

    /// A detector over the built-in ontology.
    #[must_use]
    pub fn builtin() -> Self {
        Self::new(Ontology::builtin())
    }

    /// The detector's ontology.
    #[must_use]
    pub fn ontology(&self) -> &'static Ontology {
        self.ontology
    }

    /// The detector's tokenizer: raw (no stopwords, no stemming), so
    /// [`Stems::push`] of each of its tokens builds what
    /// [`ConceptDetector::detect_stems`] reads.
    #[must_use]
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// Exact detection: every concept whose surface term or paraphrase
    /// occurs (as a stemmed token subsequence) in `text`.
    #[must_use]
    pub fn detect(&self, text: &str) -> Vec<Detection> {
        self.detect_stems(&stems_of(&self.tokenizer, text))
    }

    /// [`ConceptDetector::detect`] over a text's stems, for callers that
    /// tokenize the text anyway.
    #[must_use]
    pub fn detect_stems(&self, stems: &Stems) -> Vec<Detection> {
        let ids: Vec<u32> = stems
            .iter()
            .map(|stem| self.stem_ids.get(stem).copied().unwrap_or(UNKNOWN))
            .collect();
        let mut out: Vec<Detection> = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let Some(candidates) = self.index.get(id as usize) else {
                continue;
            };
            for cand in candidates {
                if !ids[i..].starts_with(&cand.tokens) {
                    continue;
                }
                match out.iter_mut().find(|d| d.concept == cand.concept) {
                    Some(d) => {
                        d.via_surface |= cand.surface;
                        d.occurrences += 1;
                    }
                    None => out.push(Detection {
                        concept: cand.concept,
                        via_surface: cand.surface,
                        occurrences: 1,
                    }),
                }
            }
        }
        out.sort_by_key(|d| d.concept);
        out
    }

    /// Exact detection returning just the concept ids.
    #[must_use]
    pub fn detect_ids(&self, text: &str) -> Vec<ConceptId> {
        self.detect(text).into_iter().map(|d| d.concept).collect()
    }

    /// Noisy detection through a model's [`FidelityProfile`].
    ///
    /// - A surface-matched concept survives with `surface_recall`
    ///   probability; a paraphrase-only concept with `paraphrase_recall`.
    /// - Three hallucination draws may add unrelated concepts.
    ///
    /// All randomness is a deterministic function of
    /// `(text, concept, profile.salt)`.
    #[must_use]
    pub fn detect_noisy(&self, text: &str, profile: &FidelityProfile) -> Vec<Detection> {
        self.detect_noisy_stems(text, &stems_of(&self.tokenizer, text), profile)
    }

    /// [`ConceptDetector::detect_noisy`] with `text`'s stems already
    /// computed (`stems` must be what [`Stems::push`] of each token of
    /// [`ConceptDetector::tokenizer`] over `text` builds; the noise is
    /// still drawn from `text` itself).
    #[must_use]
    pub fn detect_noisy_stems(
        &self,
        text: &str,
        stems: &Stems,
        profile: &FidelityProfile,
    ) -> Vec<Detection> {
        let text_hash = fnv1a(text.as_bytes());
        let mut out: Vec<Detection> = self
            .detect_stems(stems)
            .into_iter()
            .filter(|d| {
                let p = if d.via_surface {
                    profile.surface_recall
                } else {
                    profile.paraphrase_recall
                };
                let u = unit_float(mix(&[text_hash, u64::from(d.concept.0), profile.salt, 1]));
                u < p
            })
            .collect();
        // Hallucinations: up to 3 spurious concepts.
        if profile.hallucination_rate > 0.0 {
            let n = self.ontology.len() as u64;
            for draw in 0..3u64 {
                let h = mix(&[text_hash, profile.salt, 0xbad_c0de, draw]);
                if unit_float(h) < profile.hallucination_rate {
                    let concept = ConceptId((mix(&[h, 7]) % n) as u16);
                    if !out.iter().any(|d| d.concept == concept) {
                        out.push(Detection {
                            concept,
                            via_surface: false,
                            occurrences: 1,
                        });
                    }
                }
            }
        }
        out.sort_by_key(|d| d.concept);
        out
    }

    /// Noisy detection returning just concept ids.
    #[must_use]
    pub fn detect_noisy_ids(&self, text: &str, profile: &FidelityProfile) -> Vec<ConceptId> {
        self.detect_noisy(text, profile)
            .into_iter()
            .map(|d| d.concept)
            .collect()
    }
}

/// The stems of every token `tokenizer` finds in `text`.
fn stems_of(tokenizer: &Tokenizer, text: &str) -> Stems {
    let mut stems = Stems::default();
    tokenizer.for_each_token(text, |tok| {
        stems.push(tok);
    });
    stems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det() -> ConceptDetector {
        ConceptDetector::builtin()
    }

    #[test]
    fn detects_surface_terms() {
        let d = det();
        let o = d.ontology();
        let ids = d.detect_ids("great little coffee shop downtown");
        assert!(ids.contains(&o.id_of("coffee-specialty")));
    }

    #[test]
    fn detects_multiword_paraphrases() {
        let d = det();
        let o = d.ontology();
        let ids = d.detect_ids("big screens on every wall and cold beer");
        assert!(ids.contains(&o.id_of("live-sports-viewing")));
        assert!(ids.contains(&o.id_of("beer-selection")));
    }

    #[test]
    fn surface_flag_distinguishes_match_kind() {
        let d = det();
        let o = d.ontology();
        let dets = d.detect("sports bar with big screens on every wall");
        let lsv = dets
            .iter()
            .find(|x| x.concept == o.id_of("live-sports-viewing"))
            .unwrap();
        assert!(lsv.via_surface);
        let dets2 = d.detect("big screens on every wall");
        let lsv2 = dets2
            .iter()
            .find(|x| x.concept == o.id_of("live-sports-viewing"))
            .unwrap();
        assert!(!lsv2.via_surface);
    }

    #[test]
    fn stemming_matches_inflections() {
        let d = det();
        let o = d.ontology();
        // "burger" surface term should match "burgers".
        let ids = d.detect_ids("best burgers in town");
        assert!(ids.contains(&o.id_of("burgers")));
    }

    #[test]
    fn empty_text_detects_nothing() {
        assert!(det().detect("").is_empty());
        assert!(det().detect("xyzzy plugh qwerty").is_empty());
    }

    #[test]
    fn occurrences_counted() {
        let d = det();
        let o = d.ontology();
        let dets = d.detect("pizza pizza and more pizza");
        let p = dets.iter().find(|x| x.concept == o.id_of("pizza")).unwrap();
        assert_eq!(p.occurrences, 3);
    }

    #[test]
    fn perfect_profile_changes_nothing() {
        let d = det();
        let text = "cozy cafe with single origin pour overs and free wifi";
        assert_eq!(
            d.detect(text),
            d.detect_noisy(text, &FidelityProfile::perfect())
        );
    }

    #[test]
    fn noisy_detection_is_deterministic() {
        let d = det();
        let p = FidelityProfile::embedding_small();
        let text = "candlelit tables for two, inventive seasonal drinks list";
        assert_eq!(d.detect_noisy(text, &p), d.detect_noisy(text, &p));
    }

    #[test]
    fn embedding_profile_misses_some_paraphrases() {
        let d = det();
        let p = FidelityProfile::embedding_small();
        // Across many paraphrase-only texts, the embedding profile should
        // miss a substantial fraction that gpt-4o keeps.
        let o = d.ontology();
        let mut missed_em = 0;
        let mut missed_4o = 0;
        let mut total = 0;
        for c in o.concepts() {
            for para in c.paraphrases {
                total += 1;
                let truth = d.detect_ids(para);
                if !truth.contains(&c.id) {
                    continue; // phrase shadowed by another concept: skip
                }
                if !d.detect_noisy_ids(para, &p).contains(&c.id) {
                    missed_em += 1;
                }
                if !d
                    .detect_noisy_ids(para, &FidelityProfile::gpt4o())
                    .contains(&c.id)
                {
                    missed_4o += 1;
                }
            }
        }
        assert!(total > 200);
        assert!(
            missed_em > missed_4o * 2,
            "embedding missed {missed_em}, gpt-4o missed {missed_4o}"
        );
    }

    #[test]
    fn different_models_disagree_somewhere() {
        let d = det();
        let texts = [
            "flows for every level and savasana worth staying for",
            "knots melted away with robes and cucumber water",
            "treasure hunting racks with one of a kind finds",
            "sunset over the skyline with inventive seasonal drinks list",
        ];
        let em = FidelityProfile::embedding_small();
        let o1 = FidelityProfile::o1_mini();
        let mut any_diff = false;
        for t in texts {
            if d.detect_noisy(t, &em) != d.detect_noisy(t, &o1) {
                any_diff = true;
            }
        }
        assert!(any_diff);
    }
}

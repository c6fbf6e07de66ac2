//! Concept detection: mapping text onto ontology concepts.
//!
//! Detection is phrase matching over stemmed tokens. Run with
//! [`ConceptDetector::detect`] it is exact and defines ground truth; run
//! with [`ConceptDetector::detect_noisy`] it simulates an imperfect model
//! through a [`FidelityProfile`] — deterministic per (text, concept,
//! model), so the simulated world is stable across pipeline stages.
//!
//! A text is read once, as a [`Reading`]: its FNV-1a hash (what the
//! noise is drawn from) and the interned ids of its stems (what phrases
//! are matched against). A [`Reader`] builds one from segments fed in
//! order — the decoded strings of a prompt, a POI's tips — as the
//! reading of the text they would join into, without that text ever
//! being written: each segment extends the hash, and each token the
//! detector's tokenizer finishes is stemmed and looked up there and then
//! (a stem is a slice of its token unless the stemmer put a suffix back,
//! and only then is it assembled, in one scratch buffer).
//!
//! The phrase index is interned. [`ConceptDetector::new`] numbers every
//! stem that occurs in an ontology phrase (a dense `u32` id), stores each
//! phrase as its stems' ids, and files the phrases in a `Vec` indexed by
//! the id of their first stem. Stem ids live in a flat open-addressing
//! table keyed by the stem's bytes; a stem longer than the vocabulary's
//! longest is not looked up at all. A stem outside the vocabulary gets a
//! sentinel id, which starts no phrase and equals no phrase token.
//! Matching a phrase is then a comparison of `u32` slices.

use std::collections::HashMap;

use textindex::tokenizer::{stem, stem_parts, Tokenizer};

use crate::concept::ConceptId;
use crate::hash::{fnv1a_extend, mix, unit_float, FNV_OFFSET};
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

/// The id of a stem that occurs in no ontology phrase.
const UNKNOWN: u32 = u32::MAX;

/// Stem → id, for every stem of every ontology phrase: open addressing
/// with linear probing over a power-of-two slot array at most half full.
/// A slot holds a tag (hash bits the index did not use) and the id; the
/// stems' bytes sit in one buffer in id order, so a lookup compares
/// bytes only when the tag agrees.
struct StemTable {
    /// `(tag, id)` per slot; an empty slot's id is [`UNKNOWN`].
    slots: Box<[(u32, u32)]>,
    /// `64 - log2(slots.len())`: a hash's top bits pick its first slot.
    shift: u32,
    /// Every stem's bytes, in id order.
    bytes: Vec<u8>,
    /// Where each id's stem ends in `bytes`.
    ends: Vec<u32>,
    /// The longest stem's length in bytes.
    longest: usize,
}

impl StemTable {
    fn new(stems: &[String]) -> Self {
        let len = (2 * stems.len()).next_power_of_two().max(2);
        let mut table = Self {
            slots: vec![(0, UNKNOWN); len].into_boxed_slice(),
            shift: 64 - len.trailing_zeros(),
            bytes: Vec::new(),
            ends: Vec::with_capacity(stems.len()),
            longest: 0,
        };
        for (id, stem) in stems.iter().enumerate() {
            table.bytes.extend_from_slice(stem.as_bytes());
            table.ends.push(table.bytes.len() as u32);
            table.longest = table.longest.max(stem.len());
            let (mut at, tag) = table.home(stem.as_bytes());
            while table.slots[at].1 != UNKNOWN {
                at = (at + 1) & (len - 1);
            }
            table.slots[at] = (tag, id as u32);
        }
        table
    }

    /// The first slot and the tag of `key`: a multiply–rotate hash, in
    /// the style of rustc's `FxHasher`, over the key's length and its
    /// bytes a word at a time (a key of at most 8 bytes is one word,
    /// read from two overlapping places). The keys are stems of the
    /// detector's own vocabulary, so no adversary picks them.
    fn home(&self, key: &[u8]) -> (usize, u32) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let n = key.len();
        let word = |at: usize| u64::from_le_bytes(key[at..at + 8].try_into().expect("8 bytes"));
        let half = |at: usize| {
            u64::from(u32::from_le_bytes(
                key[at..at + 4].try_into().expect("4 bytes"),
            ))
        };
        let mut h = (n as u64).wrapping_mul(K);
        let mut add = |w: u64| h = (h.rotate_left(5) ^ w).wrapping_mul(K);
        match n {
            0 => {}
            1..=3 => {
                add(u64::from(key[0]) | u64::from(key[n / 2]) << 8 | u64::from(key[n - 1]) << 16)
            }
            4..=8 => add(half(0) | half(n - 4) << 32),
            _ => {
                let mut at = 0;
                while at + 8 < n {
                    add(word(at));
                    at += 8;
                }
                add(word(n - 8));
            }
        }
        ((h >> self.shift) as usize, (h >> 8) as u32)
    }

    fn stem(&self, id: u32) -> &[u8] {
        let id = id as usize;
        let start = if id == 0 {
            0
        } else {
            self.ends[id - 1] as usize
        };
        &self.bytes[start..self.ends[id] as usize]
    }

    /// The id of `stem`, or [`UNKNOWN`].
    fn get(&self, stem: &str) -> u32 {
        let key = stem.as_bytes();
        if key.len() > self.longest {
            return UNKNOWN;
        }
        let (mut at, tag) = self.home(key);
        let mask = self.slots.len() - 1;
        loop {
            let (t, id) = self.slots[at];
            if id == UNKNOWN || (t == tag && self.stem(id) == key) {
                return id;
            }
            at = (at + 1) & mask;
        }
    }
}

/// What detection reads of one text: its FNV-1a hash and the ids of its
/// stems in order. Every raw token (lower-cased, no stopwords removed)
/// contributes one id, an empty stem's included, so a phrase never
/// matches across a word that stemmed away. Build one with
/// [`ConceptDetector::read`] or a [`Reader`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reading {
    hash: u64,
    ids: Vec<u32>,
}

impl Reading {
    /// Reads one token: looks its stem up and hands `f` both. A stem
    /// that is a prefix of its token (most are) is not copied; any other
    /// is assembled in `scratch`.
    fn add(
        &mut self,
        detector: &ConceptDetector,
        scratch: &mut String,
        token: &str,
        f: &mut impl FnMut(&str, &str),
    ) {
        let stem = match stem_parts(token) {
            (head, "") => head,
            (head, tail) => {
                scratch.clear();
                scratch.push_str(head);
                scratch.push_str(tail);
                scratch
            }
        };
        self.ids.push(detector.stem_ids.get(stem));
        f(token, stem);
    }

    /// The FNV-1a hash of the text read ([`crate::hash::fnv1a`] of it).
    #[must_use]
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

/// Reads a text fed in segments into a [`Reading`]: the reading of the
/// segments' concatenation, whatever the cuts. Its scratch buffers
/// outlive each [`Reader::finish`], so one reader serves many texts.
pub struct Reader<'d> {
    detector: &'d ConceptDetector,
    /// The token running at the end of the last segment.
    pending: String,
    /// A stem that is not a prefix of its token.
    stem: String,
    reading: Reading,
}

impl Reader<'_> {
    /// Reads the next segment of the text.
    pub fn push(&mut self, segment: &str) {
        self.push_with(segment, |_, _| {});
    }

    /// [`Reader::push`], handing `f` each token finished on the way and
    /// its stem, `(token, stem)`.
    pub fn push_with(&mut self, segment: &str, mut f: impl FnMut(&str, &str)) {
        self.reading.hash = fnv1a_extend(self.reading.hash, segment.as_bytes());
        let Self {
            detector,
            pending,
            stem,
            reading,
        } = self;
        detector.tokenizer.feed_tokens(pending, segment, |token| {
            reading.add(detector, stem, token, &mut f)
        });
    }

    /// Ends the text: reads the token left running, returns the reading
    /// and starts the next text.
    pub fn finish(&mut self) -> Reading {
        self.finish_with(|_, _| {})
    }

    /// [`Reader::finish`], handing `f` the last token and its stem as
    /// [`Reader::push_with`] does.
    pub fn finish_with(&mut self, mut f: impl FnMut(&str, &str)) -> Reading {
        let Self {
            detector,
            pending,
            stem,
            reading,
        } = self;
        detector
            .tokenizer
            .finish_tokens(pending, |token| reading.add(detector, stem, token, &mut f));
        // The next text is likely about as long as this one.
        let next = Reading {
            hash: FNV_OFFSET,
            ids: Vec::with_capacity(reading.ids.len()),
        };
        std::mem::replace(reading, next)
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
    stem_ids: StemTable,
    /// Stem id → the phrases starting with that stem.
    index: Vec<Vec<PhraseRef>>,
    tokenizer: Tokenizer,
}

impl ConceptDetector {
    /// Builds a detector over the given ontology.
    #[must_use]
    pub fn new(ontology: &'static Ontology) -> Self {
        let tokenizer = Tokenizer::raw();
        let mut vocabulary: Vec<String> = Vec::new();
        let mut ids: HashMap<String, u32> = HashMap::new();
        let mut index: Vec<Vec<PhraseRef>> = Vec::new();
        for c in ontology.concepts() {
            for (phrases, surface) in [(c.surface, true), (c.paraphrases, false)] {
                for phrase in phrases {
                    let mut tokens: Vec<u32> = Vec::new();
                    tokenizer.for_each_token(phrase, |token| {
                        let id = *ids.entry(stem(token)).or_insert_with_key(|stem| {
                            vocabulary.push(stem.clone());
                            vocabulary.len() as u32 - 1
                        });
                        tokens.push(id);
                    });
                    let tokens = tokens.into_boxed_slice();
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
            stem_ids: StemTable::new(&vocabulary),
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

    /// A [`Reader`] over this detector's vocabulary.
    #[must_use]
    pub fn reader(&self) -> Reader<'_> {
        Reader {
            detector: self,
            pending: String::new(),
            stem: String::new(),
            reading: Reading {
                hash: FNV_OFFSET,
                ids: Vec::new(),
            },
        }
    }

    /// The [`Reading`] of `text`.
    #[must_use]
    pub fn read(&self, text: &str) -> Reading {
        let mut reader = self.reader();
        reader.push(text);
        reader.finish()
    }

    /// Exact detection: every concept whose surface term or paraphrase
    /// occurs (as a stemmed token subsequence) in `text`.
    #[must_use]
    pub fn detect(&self, text: &str) -> Vec<Detection> {
        self.detect_reading(&self.read(text))
    }

    /// [`ConceptDetector::detect`] over a text's [`Reading`].
    #[must_use]
    pub fn detect_reading(&self, reading: &Reading) -> Vec<Detection> {
        let ids = &reading.ids[..];
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
        self.detect_noisy_reading(&self.read(text), profile)
    }

    /// [`ConceptDetector::detect_noisy`] over a text's [`Reading`]; the
    /// noise is drawn from the text's hash the reading carries.
    #[must_use]
    pub fn detect_noisy_reading(
        &self,
        reading: &Reading,
        profile: &FidelityProfile,
    ) -> Vec<Detection> {
        let text_hash = reading.hash;
        let mut out: Vec<Detection> = self
            .detect_reading(reading)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn det() -> ConceptDetector {
        ConceptDetector::builtin()
    }

    #[test]
    fn the_stem_table_finds_every_stem_and_nothing_else() {
        // Every length the hash reads differently, keys that agree on
        // the bytes a short key's hash reads, and one past 16 bytes.
        let mut stems: Vec<String> = [
            "",
            "a",
            "ab",
            "abb",
            "abc",
            "abcd",
            "abcdabcd",
            "abcdefgh",
            "abcdefghi",
        ]
        .map(str::to_owned)
        .to_vec();
        stems.extend((10..=24).map(|n| "xyz".repeat(8)[..n].to_owned()));
        stems.extend((0..2000).map(|i| format!("w{i}")));
        let table = StemTable::new(&stems);
        for (id, stem) in stems.iter().enumerate() {
            assert_eq!(table.get(stem), id as u32, "{stem:?}");
        }
        for miss in [
            "b",
            "aa",
            "ba",
            "abbb",
            "abcdabc",
            "abcdabce",
            "abcdefghj",
            "w2000",
            "w-1",
            "xyzxyzxyzxyzxyzxyzxyzxyzx",
        ] {
            assert_eq!(table.get(miss), UNKNOWN, "{miss:?}");
        }
        assert_eq!(StemTable::new(&[]).get("a"), UNKNOWN);
    }

    #[test]
    fn the_builtin_vocabulary_reads_back_its_ids() {
        let d = det();
        for id in 0..d.stem_ids.ends.len() as u32 {
            let stem = std::str::from_utf8(d.stem_ids.stem(id)).expect("UTF-8");
            assert_eq!(d.stem_ids.get(stem), id, "{stem:?}");
        }
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

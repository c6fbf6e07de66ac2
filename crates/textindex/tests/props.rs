//! Property-based tests for the text retrieval substrate.

use std::collections::HashSet;

use proptest::prelude::*;
use textindex::tokenizer::{stem, stem_into, stem_parts};
use textindex::{Bm25Model, DocId, InvertedIndex, SparseVector, TfIdfModel, Tokenizer};

fn arb_word() -> impl Strategy<Value = String> {
    "[a-z]{2,8}"
}

fn arb_doc() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_word(), 1..30).prop_map(|ws| ws.join(" "))
}

/// The tokenizer and stemmer as they were before tokens streamed: one
/// `String` per token and per stem. The streaming implementation must
/// produce exactly what these do.
mod reference {
    pub const STOPWORDS: &[&str] = &[
        "a",
        "an",
        "the",
        "and",
        "or",
        "but",
        "if",
        "then",
        "else",
        "of",
        "to",
        "in",
        "on",
        "at",
        "by",
        "for",
        "with",
        "about",
        "as",
        "is",
        "are",
        "was",
        "were",
        "be",
        "been",
        "being",
        "am",
        "do",
        "does",
        "did",
        "have",
        "has",
        "had",
        "i",
        "you",
        "he",
        "she",
        "it",
        "we",
        "they",
        "me",
        "my",
        "your",
        "their",
        "our",
        "this",
        "that",
        "these",
        "those",
        "there",
        "here",
        "which",
        "who",
        "whom",
        "what",
        "when",
        "where",
        "why",
        "how",
        "not",
        "no",
        "nor",
        "so",
        "too",
        "very",
        "can",
        "could",
        "will",
        "would",
        "shall",
        "should",
        "may",
        "might",
        "must",
        "also",
        "any",
        "some",
        "such",
        "only",
        "own",
        "same",
        "than",
        "into",
        "out",
        "up",
        "down",
        "over",
        "under",
        "again",
        "more",
        "most",
        "other",
        "its",
        "them",
        "his",
        "her",
        "ours",
        "yours",
        "looking",
        "find",
        "want",
        "need",
        "please",
        "recommend",
        "recommendations",
        "know",
        "anywhere",
        "somewhere",
        "place",
        "places",
    ];

    pub fn tokenize(text: &str, stopwords: &[&str], stemming: bool) -> Vec<String> {
        let mut tokens = Vec::new();
        let mut cur = String::new();
        for ch in text.chars() {
            if ch.is_alphanumeric() || ch == '\'' {
                for lc in ch.to_lowercase() {
                    if lc != '\'' {
                        cur.push(lc);
                    }
                }
            } else if !cur.is_empty() {
                keep_token(&mut tokens, std::mem::take(&mut cur), stopwords, stemming);
            }
        }
        if !cur.is_empty() {
            keep_token(&mut tokens, cur, stopwords, stemming);
        }
        tokens
    }

    fn keep_token(tokens: &mut Vec<String>, tok: String, stopwords: &[&str], stemming: bool) {
        if tok.is_empty() || stopwords.contains(&tok.as_str()) {
            return;
        }
        let tok = if stemming { stem(&tok) } else { tok };
        if !tok.is_empty() {
            tokens.push(tok);
        }
    }

    pub fn stem(word: &str) -> String {
        let w = word;
        let n = w.len();
        if n <= 3 {
            return w.to_owned();
        }
        if let Some(base) = w.strip_suffix("ations") {
            return format!("{base}ate");
        }
        if let Some(base) = w.strip_suffix("nesses") {
            return base.to_owned();
        }
        if let Some(base) = w.strip_suffix("fulness") {
            return base.to_owned();
        }
        if let Some(base) = w.strip_suffix("ness") {
            return base.to_owned();
        }
        if let Some(base) = w.strip_suffix("ingly") {
            if base.len() >= 3 {
                return base.to_owned();
            }
        }
        if let Some(base) = w.strip_suffix("edly") {
            if base.len() >= 3 {
                return base.to_owned();
            }
        }
        if let Some(base) = w.strip_suffix("ing") {
            if base.len() >= 3 {
                return undouble(base);
            }
        }
        if let Some(base) = w.strip_suffix("ied") {
            return format!("{base}y");
        }
        if let Some(base) = w.strip_suffix("ies") {
            return format!("{base}y");
        }
        if let Some(base) = w.strip_suffix("ed") {
            if base.len() >= 3 {
                return undouble(base);
            }
        }
        if let Some(base) = w.strip_suffix("sses") {
            return format!("{base}ss");
        }
        if let Some(base) = w.strip_suffix("es") {
            if base.ends_with("sh")
                || base.ends_with("ch")
                || base.ends_with('x')
                || base.ends_with('z')
            {
                return base.to_owned();
            }
        }
        if w.ends_with("ss") || w.ends_with("us") || w.ends_with("is") {
            return w.to_owned();
        }
        if let Some(base) = w.strip_suffix('s') {
            if base.len() >= 3 {
                return base.to_owned();
            }
        }
        w.to_owned()
    }

    fn undouble(base: &str) -> String {
        let bytes = base.as_bytes();
        let n = bytes.len();
        if n >= 2 && bytes[n - 1] == bytes[n - 2] {
            let c = bytes[n - 1] as char;
            if c.is_ascii_alphabetic()
                && !matches!(c, 'l' | 's' | 'z')
                && !matches!(c, 'a' | 'e' | 'i' | 'o' | 'u')
            {
                return base[..n - 1].to_owned();
            }
        }
        base.to_owned()
    }
}

/// Characters a tokenizer has to get right: ASCII letters and digits,
/// separators, apostrophes (straight and curly), letters whose lower
/// case is longer or is more than one char, combining marks, numerals
/// that are not ASCII digits — and, a tenth of the time, any scalar
/// value at all.
fn arb_char() -> impl Strategy<Value = char> {
    const TRICKY: &[char] = &[
        ' ', ' ', '\t', '\n', ',', '.', '-', '/', '\'', '\'', '’', 'İ', 'Ç', 'É', 'ß', 'ǅ', 'ﬁ',
        'Σ', 'ς', 'Ⅻ', '½', '²', '٣', '\u{301}', '\u{307}', '中', 'K',
    ];
    (0u32..10, 0u32..0x11_0000, 0usize..TRICKY.len(), 0u8..36).prop_map(
        |(pick, any, tricky, alnum)| match pick {
            0 => char::from_u32(any).unwrap_or('\u{fffd}'),
            1..=3 => TRICKY[tricky],
            _ => char::from(b"abcdefghijklmnopqrstuvwxyz0123456789"[usize::from(alnum)]),
        },
    )
}

/// Arbitrary text, plus words that end in every suffix the stemmer
/// knows and stopwords in any case.
fn arb_text() -> impl Strategy<Value = String> {
    const WORDS: &[&str] = &[
        "Nesses",
        "ness",
        "fulness",
        "stations",
        "happily",
        "excitedly",
        "running",
        "stopped",
        "fizzing",
        "tried",
        "berries",
        "classes",
        "dishes",
        "boxes",
        "lattes",
        "glass",
        "focus",
        "axis",
        "wings",
        "is",
        "THE",
        "Looking",
        "I'm",
        "ies",
        "ied",
        "ssing",
        "abbed",
        "İNG",
    ];
    (
        prop::collection::vec(arb_char(), 0..60),
        prop::collection::vec(0usize..WORDS.len(), 0..8),
    )
        .prop_map(|(chars, words)| {
            let mut text: String = chars.into_iter().collect();
            for w in words {
                text.push(' ');
                text.push_str(WORDS[w]);
            }
            text
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tokenizers_stream_what_the_reference_collects(text in arb_text()) {
        let configs = [
            (Tokenizer::new(), reference::STOPWORDS, true),
            (Tokenizer::raw(), &[][..], false),
            (Tokenizer::raw().with_stemming(true), &[][..], true),
            (Tokenizer::new().with_stemming(false), reference::STOPWORDS, false),
        ];
        for (tokenizer, stopwords, stemming) in configs {
            let expected = reference::tokenize(&text, stopwords, stemming);
            prop_assert_eq!(&tokenizer.tokenize(&text), &expected, "{:?}", text);
            let mut streamed = Vec::new();
            tokenizer.for_each_token(&text, |tok| streamed.push(tok.to_owned()));
            prop_assert_eq!(&streamed, &expected, "{:?}", text);
        }
    }

    #[test]
    fn tokens_fed_in_pieces_are_the_tokens_of_the_whole(
        text in arb_text(),
        cuts in prop::collection::vec(0usize..80, 0..5),
    ) {
        let mut cuts: Vec<usize> = cuts
            .into_iter()
            .map(|c| (0..=c.min(text.len())).rev().find(|&i| text.is_char_boundary(i)).unwrap_or(0))
            .collect();
        cuts.sort_unstable();
        let mut pieces = Vec::new();
        let mut from = 0;
        for &cut in &cuts {
            pieces.push(&text[from..cut]);
            from = cut;
        }
        pieces.push(&text[from..]);
        for (tokenizer, stopwords, stemming) in [
            (Tokenizer::new(), reference::STOPWORDS, true),
            (Tokenizer::raw(), &[][..], false),
        ] {
            let mut pending = String::new();
            let mut streamed = Vec::new();
            for piece in &pieces {
                tokenizer.feed_tokens(&mut pending, piece, |tok| streamed.push(tok.to_owned()));
            }
            tokenizer.finish_tokens(&mut pending, |tok| streamed.push(tok.to_owned()));
            prop_assert!(pending.is_empty());
            prop_assert_eq!(
                &streamed,
                &reference::tokenize(&text, stopwords, stemming),
                "{:?} in {:?}",
                text,
                pieces
            );
        }
    }

    #[test]
    fn stem_matches_the_reference(text in arb_text()) {
        for word in text.split(|c: char| !c.is_alphanumeric()).chain([text.as_str()]) {
            let expected = reference::stem(word);
            prop_assert_eq!(&stem(word), &expected, "{:?}", word);
            let mut appended = String::from("prefix");
            stem_into(word, &mut appended);
            prop_assert_eq!(&appended[6..], expected.as_str(), "{:?}", word);
            let (head, tail) = stem_parts(word);
            prop_assert!(word.starts_with(head));
            prop_assert_eq!(format!("{head}{tail}"), expected, "{:?}", word);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn raw_tokenizer_is_idempotent(doc in arb_doc()) {
        // Idempotence holds for the raw tokenizer; the stemming variant is
        // deliberately *not* idempotent (Porter-family stemmers never are:
        // "aaased" → "aaas" → "aaa"), so it only guarantees normal form.
        let t = Tokenizer::raw();
        let once = t.tokenize(&doc);
        let twice = t.tokenize(&once.join(" "));
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn stemming_tokenizer_output_is_normalized(doc in arb_doc()) {
        let t = Tokenizer::new();
        for tok in t.tokenize(&doc) {
            prop_assert!(!tok.is_empty());
            prop_assert!(tok.chars().all(|c| c.is_lowercase() || c.is_ascii_digit()));
        }
    }

    #[test]
    fn and_query_results_contain_all_terms(docs in prop::collection::vec(arb_doc(), 1..20)) {
        let mut idx = InvertedIndex::new();
        for d in &docs {
            idx.add_document(d);
        }
        // Query with the first two tokens of the first document.
        let t = Tokenizer::new();
        let toks = t.tokenize(&docs[0]);
        if toks.len() >= 2 {
            let q = format!("{} {}", toks[0], toks[1]);
            let hits = idx.and_query(&q);
            // Doc 0 must be among the hits.
            prop_assert!(hits.contains(&0));
            // Every hit contains both tokens.
            for h in hits {
                let dtoks = t.tokenize(&docs[h as usize]);
                prop_assert!(dtoks.contains(&toks[0]));
                prop_assert!(dtoks.contains(&toks[1]));
            }
        }
    }

    #[test]
    fn and_is_subset_of_or(docs in prop::collection::vec(arb_doc(), 1..20), q in arb_doc()) {
        let mut idx = InvertedIndex::new();
        for d in &docs {
            idx.add_document(d);
        }
        let and: Vec<_> = idx.and_query(&q);
        let or: Vec<_> = idx.or_query(&q).into_iter().map(|(d, _)| d).collect();
        for d in and {
            prop_assert!(or.contains(&d));
        }
    }

    #[test]
    fn tfidf_self_similarity_is_maximal(docs in prop::collection::vec(arb_doc(), 2..15)) {
        let m = TfIdfModel::fit_documents(&docs);
        // A document queried with its own text ranks itself at least as
        // high as any other document.
        let ranked = m.rank(&docs[0], &(0..docs.len() as u32).collect::<Vec<_>>());
        let self_score = ranked.iter().find(|(d, _)| *d == 0).unwrap().1;
        prop_assert!(ranked.iter().all(|&(_, s)| s <= self_score + 1e-6));
    }

    #[test]
    fn tfidf_scores_bounded(docs in prop::collection::vec(arb_doc(), 2..15), q in arb_doc()) {
        let m = TfIdfModel::fit_documents(&docs);
        for d in 0..docs.len() as u32 {
            let s = m.similarity(&q, d);
            prop_assert!((-1e-6..=1.0 + 1e-6).contains(&s), "score {s}");
        }
    }

    #[test]
    fn bm25_scores_nonnegative(docs in prop::collection::vec(arb_doc(), 2..15), q in arb_doc()) {
        let mut idx = InvertedIndex::new();
        for d in &docs {
            idx.add_document(d);
        }
        let m = Bm25Model::new(idx);
        for (_, s) in m.rank_all(&q) {
            prop_assert!(s >= 0.0);
        }
    }

    #[test]
    fn sparse_dot_is_commutative_and_cauchy_schwarz(
        a in prop::collection::vec((0u32..100, -5.0f32..5.0), 0..20),
        b in prop::collection::vec((0u32..100, -5.0f32..5.0), 0..20),
    ) {
        let va = SparseVector::from_pairs(a);
        let vb = SparseVector::from_pairs(b);
        prop_assert!((va.dot(&vb) - vb.dot(&va)).abs() < 1e-3);
        prop_assert!(va.dot(&vb).abs() <= va.norm() * vb.norm() + 1e-3);
        prop_assert!(va.cosine(&vb).abs() <= 1.0 + 1e-5);
    }
}

/// A document over a four-letter alphabet, so multi-word conjunctions
/// often match.
fn arb_small_doc() -> impl Strategy<Value = String> {
    prop::collection::vec("[a-d]{2,3}", 1..12).prop_map(|ws| ws.join(" "))
}

/// Up to four query words, about one in five `zq…`, which no
/// [`arb_small_doc`] holds.
fn arb_conjunction() -> impl Strategy<Value = String> {
    prop::collection::vec((0u8..5, "[a-d]{2,3}"), 0..5).prop_map(|ws| {
        ws.into_iter()
            .map(|(unknown, w)| if unknown == 0 { format!("zq{w}") } else { w })
            .collect::<Vec<_>>()
            .join(" ")
    })
}

/// Brute force: the ids of `docs` holding every token of `query`.
fn holding_all(docs: &[String], query: &str, ids: impl Iterator<Item = DocId>) -> Vec<DocId> {
    let t = Tokenizer::new();
    let wanted = t.tokenize(query);
    ids.filter(|&d| {
        let held: HashSet<String> = t.tokenize(&docs[d as usize]).into_iter().collect();
        wanted.iter().all(|w| held.contains(w))
    })
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn and_query_is_the_exact_conjunction(
        docs in prop::collection::vec(arb_small_doc(), 1..30),
        q in arb_conjunction(),
    ) {
        let mut idx = InvertedIndex::new();
        for d in &docs {
            idx.add_document(d);
        }
        // A query without tokens matches nothing; otherwise an unknown
        // token empties it like any token no document holds.
        let want = if Tokenizer::new().tokenize(&q).is_empty() {
            Vec::new()
        } else {
            holding_all(&docs, &q, 0..docs.len() as DocId)
        };
        prop_assert_eq!(idx.and_query(&q), want, "query {:?}", q);
    }

    #[test]
    fn and_among_is_the_exact_conjunction_in_both_loops(
        docs in prop::collection::vec(arb_small_doc(), 1..30),
        q in arb_conjunction(),
        picks in prop::collection::vec(0u8..2, 30),
    ) {
        let mut idx = InvertedIndex::new();
        for d in &docs {
            idx.add_document(d);
        }
        let candidates: Vec<DocId> = (0..docs.len() as DocId)
            .filter(|&d| picks[d as usize] == 1)
            .collect();
        let mut live = docs.clone();
        for round in 0..2 {
            if round == 1 {
                // Rewrite the first document as the last and delete the
                // second: the answers follow the live text.
                let last = docs.len() - 1;
                idx.update_document(0, &docs[0], &docs[last]);
                live[0] = docs[last].clone();
                if docs.len() > 1 {
                    idx.remove_document(1, &docs[1]);
                    live[1] = String::new();
                }
            }
            // The picked set usually merges; one candidate at a time
            // binary-searches whenever the query's terms hold more
            // postings than it has terms.
            let want = holding_all(&live, &q, candidates.iter().copied());
            prop_assert_eq!(idx.and_among(&q, &candidates, |d| d), want.clone(), "query {:?}", q);
            for &c in &candidates {
                prop_assert_eq!(
                    idx.and_among(&q, &[c], |d| d),
                    want.iter().copied().filter(|&d| d == c).collect::<Vec<_>>(),
                    "query {:?}, candidate {}, round {}", q, c, round
                );
            }
        }
    }

    #[test]
    fn removes_and_updates_leave_the_counts_of_a_rebuilt_index(
        docs in prop::collection::vec(arb_small_doc(), 2..30),
        ops in prop::collection::vec((0u8..3, 0usize..30, 0usize..30), 1..40),
        queries in prop::collection::vec(arb_conjunction(), 4),
    ) {
        let mut idx = InvertedIndex::new();
        for d in &docs {
            idx.add_document(d);
        }
        // One remove in three, updates otherwise (to another document's
        // text, so postings die, revive and move); a removed document
        // stays removed.
        let mut live: Vec<Option<String>> = docs.iter().cloned().map(Some).collect();
        for (op, a, b) in ops {
            let d = a % docs.len();
            let Some(text) = live[d].clone() else { continue };
            if op == 0 {
                idx.remove_document(d as DocId, &text);
                live[d] = None;
            } else {
                let new = docs[b % docs.len()].clone();
                idx.update_document(d as DocId, &text, &new);
                live[d] = Some(new);
            }
        }
        let mut rebuilt = InvertedIndex::new();
        for text in &live {
            rebuilt.add_document(text.as_deref().unwrap_or(""));
        }
        prop_assert_eq!(idx.num_docs(), rebuilt.num_docs());
        // Every term either index ever interned: the same live count.
        for t in 0..idx.vocab().len() as u32 {
            let token = idx.vocab().term(t).expect("interned");
            let want = rebuilt.vocab().get(token).map_or(0, |r| rebuilt.doc_freq(r));
            prop_assert_eq!(idx.doc_freq(t), want, "term {:?}", token);
        }
        for r in 0..rebuilt.vocab().len() as u32 {
            prop_assert!(idx.vocab().get(rebuilt.vocab().term(r).expect("interned")).is_some());
        }
        // Statistics of every surviving text, and of any query whose
        // tokens both indexes know or neither does (a token only removed
        // documents held is known to the first with no documents).
        let t = Tokenizer::new();
        let surviving = live.iter().flatten().cloned();
        for q in surviving.chain(queries) {
            prop_assert_eq!(idx.and_query(&q), rebuilt.and_query(&q), "query {:?}", q);
            let comparable = t.tokenize(&q).iter().all(|tok| {
                idx.vocab().get(tok).is_some() == rebuilt.vocab().get(tok).is_some()
            });
            if comparable {
                prop_assert_eq!(idx.query_stats(&q), rebuilt.query_stats(&q), "query {:?}", q);
            }
        }
    }
}

/// One edit of a planned sequence, as the text path would apply it.
#[derive(Debug, Clone)]
enum Edit {
    Add(String),
    Update(DocId, String),
    Remove(DocId),
}

/// A valid edit sequence over `base` documents: `picks` chooses adds,
/// updates and removes of live documents among `texts`, and a fixed tail
/// adds a document, updates it twice, then adds and removes another.
/// `texts` hold words no base document does, so an edit's tokens are
/// often first interned by an earlier edit of the sequence.
fn edit_script(base: usize, picks: &[(u8, usize, usize)], texts: &[String]) -> Vec<Edit> {
    let mut live: Vec<bool> = vec![true; base];
    let mut edits = Vec::new();
    let text = |i: usize| texts[i % texts.len()].clone();
    for &(op, a, b) in picks {
        let alive: Vec<DocId> = (0..live.len() as DocId)
            .filter(|&d| live[d as usize])
            .collect();
        if op == 0 || alive.is_empty() {
            live.push(true);
            edits.push(Edit::Add(text(b)));
        } else if op == 1 {
            edits.push(Edit::Update(alive[a % alive.len()], text(b)));
        } else {
            let d = alive[a % alive.len()];
            live[d as usize] = false;
            edits.push(Edit::Remove(d));
        }
    }
    let added = live.len() as DocId;
    edits.extend([
        Edit::Add(text(0)),
        Edit::Update(added, text(1)),
        Edit::Update(added, text(2)),
        Edit::Add(text(3)),
        Edit::Remove(added + 1),
    ]);
    edits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn edits_planned_before_any_applies_match_a_rebuilt_index(
        docs in prop::collection::vec(arb_small_doc(), 1..20),
        picks in prop::collection::vec((0u8..3, 0usize..40, 0usize..40), 0..30),
        fresh in prop::collection::vec(
            prop::collection::vec(("[a-d]{2,3}", 0u8..2), 1..8).prop_map(|ws| {
                ws.into_iter()
                    .map(|(w, new)| if new == 0 { format!("zq{w}") } else { w })
                    .collect::<Vec<_>>()
                    .join(" ")
            }),
            4..8,
        ),
        queries in prop::collection::vec(arb_conjunction(), 4),
    ) {
        let edits = edit_script(docs.len(), &picks, &fresh);
        let t = Tokenizer::new();
        let mut planned = InvertedIndex::new();
        // The same edits through the `*_document` path, each planned
        // just before it applies.
        let mut late = InvertedIndex::new();
        for d in &docs {
            planned.add_document(d);
            late.add_document(d);
        }
        // The texts every document holds before each edit, and after
        // all; and, as a reference of its own, every token in the order
        // an added or updated text first brings it.
        let mut live: Vec<Option<String>> = docs.iter().cloned().map(Some).collect();
        let mut first_seen: Vec<String> = Vec::new();
        let mut bring = |text: &str| {
            for tok in t.tokenize(text) {
                if !first_seen.contains(&tok) {
                    first_seen.push(tok);
                }
            }
        };
        docs.iter().for_each(|d| bring(d));
        let mut before = Vec::new();
        for e in &edits {
            before.push(live.clone());
            match e {
                Edit::Add(text) => {
                    bring(text);
                    live.push(Some(text.clone()));
                }
                Edit::Update(d, text) => {
                    bring(text);
                    live[*d as usize] = Some(text.clone());
                }
                Edit::Remove(d) => live[*d as usize] = None,
            }
        }

        // Every edit is planned against the index as it stood before
        // the first one applies.
        let old_text = |k: usize, d: DocId| before[k][d as usize].clone().expect("edits only live documents");
        let plans: Vec<_> = edits
            .iter()
            .enumerate()
            .map(|(k, e)| match e {
                Edit::Add(text) => (None, Some(planned.doc_terms(text))),
                Edit::Update(d, text) => (
                    Some(planned.doc_terms(&old_text(k, *d))),
                    Some(planned.doc_terms(text)),
                ),
                Edit::Remove(d) => (Some(planned.doc_terms(&old_text(k, *d))), None),
            })
            .collect();
        for (k, (e, (old, new))) in edits.iter().zip(plans).enumerate() {
            match (e, old, new) {
                (Edit::Add(text), None, Some(new)) => {
                    let d = planned.add_terms(new);
                    prop_assert_eq!(d, late.add_document(text));
                }
                (Edit::Update(d, text), Some(old), Some(new)) => {
                    planned.update_terms(*d, old, new);
                    late.update_document(*d, &old_text(k, *d), text);
                }
                (Edit::Remove(d), Some(old), None) => {
                    planned.remove_terms(*d, old);
                    late.remove_document(*d, &old_text(k, *d));
                }
                _ => unreachable!("a plan has its edit's shape"),
            }
        }

        let mut rebuilt = InvertedIndex::new();
        for text in &live {
            rebuilt.add_document(text.as_deref().unwrap_or(""));
        }
        prop_assert_eq!(planned.num_docs(), late.num_docs());
        prop_assert_eq!(planned.num_docs(), rebuilt.num_docs());
        for d in 0..planned.num_docs() as DocId {
            prop_assert_eq!(planned.doc_len(d), late.doc_len(d), "doc {}", d);
            prop_assert_eq!(planned.doc_len(d), rebuilt.doc_len(d), "doc {}", d);
        }
        // Every token interned in the order the edits first bring it,
        // with the live counts of a rebuilt index.
        prop_assert_eq!(planned.vocab().len(), first_seen.len());
        prop_assert_eq!(planned.vocab().len(), late.vocab().len());
        for (id, token) in first_seen.iter().enumerate() {
            let id = id as u32;
            prop_assert_eq!(planned.vocab().term(id), Some(token.as_str()));
            prop_assert_eq!(late.vocab().term(id), Some(token.as_str()));
            prop_assert_eq!(planned.doc_freq(id), late.doc_freq(id), "term {:?}", token);
            let want = rebuilt.vocab().get(token).map_or(0, |r| rebuilt.doc_freq(r));
            prop_assert_eq!(planned.doc_freq(id), want, "term {:?}", token);
        }
        let surviving = live.iter().flatten().cloned();
        for q in surviving.chain(fresh).chain(queries) {
            let got = planned.and_query(&q);
            prop_assert_eq!(&got, &late.and_query(&q), "query {:?}", q);
            prop_assert_eq!(&got, &rebuilt.and_query(&q), "query {:?}", q);
            prop_assert_eq!(planned.query_stats(&q), late.query_stats(&q), "query {:?}", q);
            let comparable = t.tokenize(&q).iter().all(|tok| {
                planned.vocab().get(tok).is_some() == rebuilt.vocab().get(tok).is_some()
            });
            if comparable {
                prop_assert_eq!(planned.query_stats(&q), rebuilt.query_stats(&q), "query {:?}", q);
            }
        }
    }
}

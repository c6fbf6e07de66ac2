//! Tokenization: lower-casing, punctuation stripping, stopwords, stemming.

use std::collections::HashSet;

/// English stopwords kept small on purpose: enough to stop query scaffolding
/// ("I am looking for a …") from polluting TF-IDF, without eating
/// domain-bearing words.
const STOPWORDS: &[&str] = &[
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

/// A configurable tokenizer.
///
/// The default configuration (stopwords on, stemming on) is what the TF-IDF
/// and LDA baselines use; the concept detector in the `concepts` crate uses
/// a raw configuration (no stopwords, no stemming) because its phrase
/// lexicon needs exact word sequences.
#[derive(Debug, Clone)]
pub struct Tokenizer {
    stopwords: HashSet<&'static str>,
    stem: bool,
}

impl Default for Tokenizer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tokenizer {
    /// Tokenizer with stopword removal and stemming enabled.
    #[must_use]
    pub fn new() -> Self {
        Self {
            stopwords: STOPWORDS.iter().copied().collect(),
            stem: true,
        }
    }

    /// Tokenizer that only lower-cases and strips punctuation.
    #[must_use]
    pub fn raw() -> Self {
        Self {
            stopwords: HashSet::new(),
            stem: false,
        }
    }

    /// Builder-style toggle for stemming.
    #[must_use]
    pub fn with_stemming(mut self, stem: bool) -> Self {
        self.stem = stem;
        self
    }

    /// Whether this tokenizer drops `token` (a lower-cased, unstemmed
    /// token) as a stopword.
    #[must_use]
    pub fn is_stopword(&self, token: &str) -> bool {
        self.stopwords.contains(token)
    }

    /// Splits `text` into normalized tokens: [`Tokenizer::for_each_token`]
    /// collected.
    #[must_use]
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        self.for_each_token(text, |tok| tokens.push(tok.to_owned()));
        tokens
    }

    /// Hands each normalized token of `text` to `f`, in order, without
    /// allocating per token: a token is lower-cased into one buffer that
    /// every token reuses, dropped if it is a stopword, and stemmed in
    /// place. A run of ASCII letters and digits is taken whole, and a
    /// token that is already lower case, such a run with an ASCII
    /// separator after it, is handed on as a slice of `text` unless it
    /// must be stemmed.
    ///
    /// A token is a maximal run of alphanumeric characters and
    /// apostrophes; the apostrophes are dropped ("Mike's" → "mikes").
    pub fn for_each_token(&self, text: &str, mut f: impl FnMut(&str)) {
        let mut pending = String::new();
        self.feed_tokens(&mut pending, text, &mut f);
        self.finish_tokens(&mut pending, f);
    }

    /// [`Tokenizer::for_each_token`] over a text that arrives in pieces:
    /// hands `f` each token that ends inside `piece`, and leaves the
    /// token still running at its end, lower-cased so far, in `pending`
    /// for the next piece. Feeding the pieces of a text in order and
    /// then calling [`Tokenizer::finish_tokens`] hands `f` exactly the
    /// tokens of the whole text, wherever the cuts fall.
    pub fn feed_tokens(&self, pending: &mut String, piece: &str, mut f: impl FnMut(&str)) {
        let bytes = piece.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            // A run of ASCII letters and digits is taken whole. If no
            // token runs into it, it holds no upper case and an ASCII
            // byte that is not an apostrophe ends it, the run is a token
            // and is handed on as a slice of the piece; any other run
            // joins `pending`, lower-cased.
            let start = i;
            let mut upper = false;
            while let Some(&b) = bytes.get(i).filter(|b| b.is_ascii_alphanumeric()) {
                upper |= b.is_ascii_uppercase();
                i += 1;
            }
            if i > start {
                let run = &piece[start..i];
                let ends = bytes.get(i).is_some_and(|&b| b.is_ascii() && b != b'\'');
                if ends && !upper && pending.is_empty() {
                    i += 1;
                    if self.stem {
                        pending.push_str(run);
                        self.emit(pending, &mut f);
                    } else if !self.stopwords.contains(run) {
                        f(run);
                    }
                    continue;
                }
                let at = pending.len();
                pending.push_str(run);
                pending[at..].make_ascii_lowercase();
                if i == bytes.len() {
                    break;
                }
            }
            // One char that is not an ASCII letter or digit.
            let b = bytes[i];
            let word = if b.is_ascii() {
                i += 1;
                b == b'\''
            } else {
                let ch = piece[i..]
                    .chars()
                    .next()
                    .expect("`i` is on a char boundary");
                i += ch.len_utf8();
                let alnum = ch.is_alphanumeric();
                if alnum {
                    pending.extend(ch.to_lowercase().filter(|&lc| lc != '\''));
                }
                alnum
            };
            if !word && !pending.is_empty() {
                self.emit(pending, &mut f);
            }
        }
    }

    /// Ends the text [`Tokenizer::feed_tokens`] was fed: hands `f` the
    /// token left in `pending`, if any, and clears it.
    pub fn finish_tokens(&self, pending: &mut String, mut f: impl FnMut(&str)) {
        if !pending.is_empty() {
            self.emit(pending, &mut f);
        }
    }

    fn emit(&self, buf: &mut String, f: &mut impl FnMut(&str)) {
        if !self.stopwords.contains(buf.as_str()) {
            if self.stem {
                let (keep, suffix) = stem_rule(buf);
                buf.truncate(keep);
                buf.push_str(suffix);
            }
            if !buf.is_empty() {
                f(buf);
            }
        }
        buf.clear();
    }
}

/// A light suffix-stripping stemmer (a small subset of Porter's rules).
///
/// It is deliberately conservative: the goal is to conflate obvious
/// inflections (plurals, -ing/-ed forms) the way off-the-shelf TF-IDF
/// pipelines do, not to be linguistically complete.
#[must_use]
pub fn stem(word: &str) -> String {
    let mut out = String::with_capacity(word.len() + 1);
    stem_into(word, &mut out);
    out
}

/// Appends the stem of `word` to `out` — [`stem`] without a fresh
/// `String`.
pub fn stem_into(word: &str, out: &mut String) {
    let (head, tail) = stem_parts(word);
    out.push_str(head);
    out.push_str(tail);
}

/// The stem of `word` in two parts, a prefix of `word` and a suffix the
/// rule put back: the stem is `head` followed by `tail`, and most words
/// have an empty `tail`, so their stem is a slice of the word.
#[must_use]
pub fn stem_parts(word: &str) -> (&str, &'static str) {
    let (keep, tail) = stem_rule(word);
    (&word[..keep], tail)
}

/// The stemming rule: the stem of `word` is its first `keep` bytes
/// followed by `suffix`. Every rule strips an ASCII suffix, so `keep` is
/// always a char boundary.
fn stem_rule(word: &str) -> (usize, &'static str) {
    let w = word;
    let n = w.len();
    // Don't touch very short words; stemming them mostly destroys
    // meaning. Every suffix below ends in `s`, `y`, `g` or `d`.
    if n <= 3 || !matches!(w.as_bytes()[n - 1], b's' | b'y' | b'g' | b'd') {
        return (n, "");
    }
    // Order matters: longest suffixes first.
    if let Some(base) = w.strip_suffix("ations") {
        return (base.len(), "ate");
    }
    if let Some(base) = w.strip_suffix("nesses") {
        return (base.len(), "");
    }
    if let Some(base) = w.strip_suffix("fulness") {
        return (base.len(), "");
    }
    if let Some(base) = w.strip_suffix("ness") {
        return (base.len(), "");
    }
    if let Some(base) = w.strip_suffix("ingly") {
        if base.len() >= 3 {
            return (base.len(), "");
        }
    }
    if let Some(base) = w.strip_suffix("edly") {
        if base.len() >= 3 {
            return (base.len(), "");
        }
    }
    if let Some(base) = w.strip_suffix("ing") {
        if base.len() >= 3 {
            return (undouble(base), "");
        }
    }
    if let Some(base) = w.strip_suffix("ied") {
        return (base.len(), "y");
    }
    if let Some(base) = w.strip_suffix("ies") {
        return (base.len(), "y");
    }
    if let Some(base) = w.strip_suffix("ed") {
        if base.len() >= 3 {
            return (undouble(base), "");
        }
    }
    if let Some(base) = w.strip_suffix("sses") {
        return (base.len(), "ss");
    }
    if let Some(base) = w.strip_suffix("es") {
        // "dishes" -> "dish", "boxes" -> "box"; but "es" after a vowel is
        // usually part of the word ("lattes" -> "latte" handled by -s rule).
        if base.ends_with("sh")
            || base.ends_with("ch")
            || base.ends_with('x')
            || base.ends_with('z')
        {
            return (base.len(), "");
        }
    }
    if w.ends_with("ss") || w.ends_with("us") || w.ends_with("is") {
        return (n, "");
    }
    if let Some(base) = w.strip_suffix('s') {
        if base.len() >= 3 {
            return (base.len(), "");
        }
    }
    (n, "")
}

/// The length of `base` without a doubled final consonant left behind
/// by -ing/-ed stripping ("stopp" → "stop"), except for ll/ss/zz which
/// are legitimate.
fn undouble(base: &str) -> usize {
    let bytes = base.as_bytes();
    let n = bytes.len();
    if n >= 2 && bytes[n - 1] == bytes[n - 2] {
        let c = bytes[n - 1] as char;
        if c.is_ascii_alphabetic() && !matches!(c, 'l' | 's' | 'z') && !is_vowel(c) {
            return n - 1;
        }
    }
    n
}

fn is_vowel(c: char) -> bool {
    matches!(c, 'a' | 'e' | 'i' | 'o' | 'u')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_lowercases_and_strips_punct() {
        let t = Tokenizer::raw();
        assert_eq!(
            t.tokenize("Hello, World! It's GREAT."),
            vec!["hello", "world", "its", "great"]
        );
    }

    #[test]
    fn tokenize_removes_stopwords() {
        let t = Tokenizer::new();
        let toks = t.tokenize("I am looking for a bar to watch football");
        assert!(!toks.contains(&"i".to_owned()));
        assert!(!toks.contains(&"looking".to_owned()));
        assert!(toks.contains(&"bar".to_owned()));
        assert!(toks.contains(&"football".to_owned()));
    }

    #[test]
    fn tokenize_keeps_numbers() {
        let t = Tokenizer::raw();
        assert_eq!(t.tokenize("open 24 hours"), vec!["open", "24", "hours"]);
    }

    #[test]
    fn stem_plurals() {
        assert_eq!(stem("wings"), "wing");
        assert_eq!(stem("dishes"), "dish");
        assert_eq!(stem("berries"), "berry");
        assert_eq!(stem("glass"), "glass");
        assert_eq!(stem("focus"), "focus");
    }

    #[test]
    fn stem_ing_ed() {
        assert_eq!(stem("watching"), "watch");
        assert_eq!(stem("stopped"), "stop");
        assert_eq!(stem("grilled"), "grill");
        assert_eq!(stem("tried"), "try");
    }

    #[test]
    fn stem_leaves_short_words() {
        assert_eq!(stem("bus"), "bus");
        assert_eq!(stem("as"), "as");
        assert_eq!(stem("tea"), "tea");
    }

    #[test]
    fn stemming_conflates_query_and_doc_forms() {
        let t = Tokenizer::new();
        let q = t.tokenize("watching games");
        let d = t.tokenize("watch the game");
        assert_eq!(q, d);
    }

    #[test]
    fn apostrophes_are_dropped_inside_words() {
        let t = Tokenizer::raw();
        assert_eq!(t.tokenize("Mike's"), vec!["mikes"]);
    }

    #[test]
    fn empty_and_whitespace() {
        let t = Tokenizer::new();
        assert!(t.tokenize("").is_empty());
        assert!(t.tokenize("   \t\n").is_empty());
        assert!(t.tokenize("!!! ... ---").is_empty());
    }
}

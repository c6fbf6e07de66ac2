//! Property-based tests for the LLM runtime's wire formats.

use concepts::ConceptDetector;
use llm::prompts::{
    extract_querygen, extract_rerank, extract_tips, parse_python_list, python_list,
    querygen_prompt, rerank_prompt, summarize_prompt, QUERYGEN_MARKER, RERANK_MARKER,
    SUMMARIZE_MARKER,
};
use llm::tasks::rerank::{format_response, parse_rerank_response, RankedEntry};
use proptest::prelude::*;
use serde_json::{Map, Value};

fn arb_text() -> impl Strategy<Value = String> {
    // Printable text including quotes and backslashes (the hard cases).
    "[ -~]{0,40}"
}

/// User text that may hold newlines, quotes, brackets and every marker
/// and section anchor the three templates write.
fn arb_hostile_text() -> impl Strategy<Value = String> {
    const PIECES: &[&str] = &[
        "\nQuery: ",
        "\nInformation: ",
        "Now it is your turn:",
        "Now it is your turn.\nInformation: ",
        "\nQuestion:",
        "\nSummary:",
        SUMMARIZE_MARKER,
        RERANK_MARKER,
        QUERYGEN_MARKER,
        "['a', 'b']",
        "[{\"name\":\"Y\"}]",
        "'",
        "\"",
        "\\",
        "\n",
        "é🦀",
    ];
    prop::collection::vec(("[ -~]{0,10}", 0usize..PIECES.len()), 1..6).prop_map(|parts| {
        parts
            .into_iter()
            .map(|(text, i)| format!("{text}{}", PIECES[i]))
            .collect()
    })
}

/// SplitMix64: the documents and strings below are drawn from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A char: often ASCII or whitespace of some kind, sometimes a
    /// control character, sometimes any scalar value.
    fn char(&mut self) -> char {
        const SPECIAL: &[char] = &[
            '"',
            '\\',
            '/',
            '\n',
            '\r',
            '\t',
            '\u{0}',
            '\u{8}',
            '\u{b}',
            '\u{c}',
            '\u{1c}',
            '\u{1f}',
            '\u{7f}',
            '\u{85}',
            '\u{a0}',
            '\u{1680}',
            '\u{2000}',
            '\u{200a}',
            '\u{200b}',
            '\u{2028}',
            '\u{2029}',
            '\u{202f}',
            '\u{205f}',
            '\u{3000}',
            '\u{feff}',
            'é',
            '🦀',
            '\u{10ffff}',
            ' ',
        ];
        match self.below(4) {
            0 => SPECIAL[self.below(SPECIAL.len())],
            1 => loop {
                if let Some(c) = char::from_u32(self.next() as u32 % 0x11_0000) {
                    break c;
                }
            },
            _ => char::from(b' ' + self.below(95) as u8),
        }
    }

    fn string(&mut self, max: usize) -> String {
        (0..self.below(max + 1)).map(|_| self.char()).collect()
    }

    fn value(&mut self, depth: usize) -> Value {
        let kinds = if depth >= 3 { 5 } else { 7 };
        match self.below(kinds) {
            0 => Value::Null,
            1 => Value::Bool(self.below(2) == 0),
            2 => {
                const INTS: [i64; 4] = [i64::MIN, i64::MAX, 0, -1];
                match self.below(5) {
                    4 => Value::from(self.next() as i64),
                    i => Value::from(INTS[i]),
                }
            }
            3 => {
                const FLOATS: [f64; 6] = [-0.0, 1e300, 5e-324, f64::MAX, 0.1, -2.5e-7];
                match self.below(7) {
                    6 => Value::from(f64::from_bits(self.next())),
                    i => Value::from(FLOATS[i]),
                }
            }
            4 => Value::String(self.string(8)),
            5 => Value::Array((0..self.below(4)).map(|_| self.value(depth + 1)).collect()),
            _ => self.object(depth),
        }
    }

    fn object(&mut self, depth: usize) -> Value {
        let mut map = Map::new();
        for _ in 0..self.below(5) {
            let key = match self.below(4) {
                0 => "name".to_owned(),
                1 => "tips".to_owned(),
                _ => self.string(4),
            };
            let value = if key == "name" && self.below(3) > 0 {
                Value::String(self.string(10))
            } else {
                self.value(depth + 1)
            };
            map.insert(key, value);
        }
        Value::Object(map)
    }
}

/// The value-tree reading of a POI the scanner replaced, kept as its
/// oracle: every string in the tree, in its order, each followed by ". ".
fn tree_text(poi: &Value) -> String {
    fn walk(v: &Value, out: &mut String) {
        match v {
            Value::String(s) => {
                out.push_str(s);
                out.push_str(". ");
            }
            Value::Array(a) => a.iter().for_each(|x| walk(x, out)),
            Value::Object(o) => o.values().for_each(|x| walk(x, out)),
            _ => {}
        }
    }
    let mut s = String::new();
    walk(poi, &mut s);
    s
}

/// The value-tree name of a POI, kept as the scanner's oracle.
fn tree_name(poi: &Value) -> String {
    poi.get("name")
        .and_then(Value::as_str)
        .unwrap_or("<unnamed>")
        .to_owned()
}

/// The token count as it was computed before the one-pass counter.
fn reference_approx_tokens(text: &str) -> u32 {
    if text.is_empty() {
        return 0;
    }
    let chars = text.chars().count() as f64;
    let words = text.split_whitespace().count() as f64;
    (chars / 4.0).max(words * 0.75).ceil() as u32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn python_list_roundtrips(items in prop::collection::vec(arb_text(), 0..8)) {
        let rendered = python_list(&items);
        let parsed = parse_python_list(&rendered);
        prop_assert_eq!(parsed, items);
    }

    #[test]
    fn rerank_dict_roundtrips(pairs in prop::collection::vec((arb_text(), arb_text()), 0..6)) {
        let entries: Vec<RankedEntry> = pairs
            .iter()
            .map(|(name, reason)| RankedEntry {
                name: name.clone(),
                reason: reason.clone(),
                full_match: true,
                matched: 1,
            })
            .collect();
        let rendered = format_response(&entries);
        let parsed = parse_rerank_response(&rendered);
        prop_assert_eq!(parsed.len(), pairs.len());
        for ((name, reason), (pn, pr)) in pairs.iter().zip(&parsed) {
            prop_assert_eq!(name, pn);
            prop_assert_eq!(reason, pr);
        }
    }

    #[test]
    fn rerank_prompt_roundtrips_query(q in arb_hostile_text()) {
        let p = rerank_prompt(r#"[{"name":"X"}]"#, &q);
        let (parsed_pois, parsed_q) = extract_rerank(&p, &ConceptDetector::builtin()).unwrap();
        prop_assert_eq!(parsed_pois.len(), 1);
        prop_assert_eq!(&parsed_pois[0].name, "X");
        prop_assert_eq!(parsed_q, q.trim());
    }

    #[test]
    fn summarize_prompt_roundtrips_tips(tips in prop::collection::vec(arb_hostile_text(), 1..5)) {
        prop_assert_eq!(extract_tips(&summarize_prompt(&tips)).unwrap(), tips);
    }

    #[test]
    fn querygen_prompt_roundtrips_info(info in arb_hostile_text()) {
        let parsed = extract_querygen(&querygen_prompt(&info));
        if info.trim().is_empty() {
            prop_assert!(parsed.is_err());
        } else {
            prop_assert_eq!(parsed.unwrap(), info.trim());
        }
    }

    #[test]
    fn scanner_reads_sorted_key_documents_like_the_value_tree(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let docs: Vec<Value> = (0..rng.below(6))
            .map(|_| if rng.below(5) == 0 { rng.value(1) } else { rng.object(0) })
            .collect();
        let compact = serde_json::to_string(&Value::Array(docs.clone())).unwrap();
        let pretty = serde_json::to_string_pretty(&Value::Array(docs)).unwrap();
        let d = ConceptDetector::builtin();
        for json in [compact, pretty] {
            let parsed = serde_json::from_str(&json).unwrap();
            let oracle = parsed.as_array().unwrap();
            let prompt = rerank_prompt(&json, "q");
            let (pois, q) = extract_rerank(&prompt, &d).unwrap();
            prop_assert_eq!(q, "q");
            prop_assert_eq!(pois.len(), oracle.len());
            for (poi, value) in pois.iter().zip(oracle) {
                prop_assert_eq!(&poi.name, &tree_name(value), "{}", json);
                prop_assert_eq!(&poi.reading, &d.read(&tree_text(value)), "{}", json);
            }
        }
    }

    #[test]
    fn approx_tokens_counts_as_before(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let text = rng.string(60);
        prop_assert_eq!(
            llm::tokens::approx_tokens(&text),
            reference_approx_tokens(&text),
            "{:?}",
            text
        );
    }

    #[test]
    fn token_count_monotone_under_concatenation(a in arb_text(), b in arb_text()) {
        let ta = llm::tokens::approx_tokens(&a);
        let tb = llm::tokens::approx_tokens(&b);
        let tab = llm::tokens::approx_tokens(&format!("{a} {b}"));
        prop_assert!(tab + 1 >= ta.max(tb), "concat shrank: {ta} {tb} -> {tab}");
    }

    #[test]
    fn latency_monotone_in_tokens(p1 in 0u32..5000, p2 in 0u32..5000, c in 0u32..500) {
        let m = llm::ModelKind::Gpt4o;
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(m.latency_ms(lo, c) <= m.latency_ms(hi, c));
        prop_assert!(m.cost_usd(lo, c) <= m.cost_usd(hi, c));
    }
}

#[test]
fn approx_tokens_agrees_on_every_ascii_byte_at_every_offset_of_a_word() {
    // Long enough that ASCII is counted eight bytes at a time, with each
    // byte value at each position of a word and across the tail. In the
    // second text words decide the count, and one word more or less
    // changes it.
    for base in [
        "ab cd\tef gh  ij\nkl mnopq rst",
        "a b c d e f g h i j k l m n o p q r",
    ] {
        for b in 0..0x80u8 {
            for at in 0..base.len() {
                let mut text = base.as_bytes().to_vec();
                text[at] = b;
                let text = String::from_utf8(text).expect("ASCII");
                for text in [text.clone(), format!(" {text}"), format!("{text}é{text}")] {
                    assert_eq!(
                        llm::tokens::approx_tokens(&text),
                        reference_approx_tokens(&text),
                        "{text:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn approx_tokens_agrees_on_every_whitespace_char() {
    for code in 0..=0x3000u32 {
        let Some(c) = char::from_u32(code) else {
            continue;
        };
        for text in [format!("a{c}b"), format!("{c}{c}x"), c.to_string()] {
            assert_eq!(
                llm::tokens::approx_tokens(&text),
                reference_approx_tokens(&text),
                "U+{code:04X}"
            );
        }
    }
}

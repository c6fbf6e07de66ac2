//! The paper's three prompt templates, verbatim, plus the parsers that
//! recover the embedded data from a raw prompt string.
//!
//! Keeping prompts as real strings (rather than structured RPC) preserves
//! the interface the paper actually uses — including its quirks, like
//! tips travelling as a Python-style list and POI attributes as JSON.
//! The refinement prompt's JSON array is text the caller wrote (see
//! `geotext::GeoTextObject::write_json`); [`extract_rerank`] reads it
//! back in one pass, without building a value tree or copying text,
//! keeping of each POI only what the simulated model reads: its name
//! and the [`concepts::Reading`] of its string values, which each
//! decoded string is fed into as the scanner leaves it.
//!
//! Each parser reads the section its template wrote: the first section
//! anchor after the template's marker. User text repeating an anchor (a
//! query holding `"\nQuery: "`, a tip holding `"Now it is your turn:"`)
//! comes after it and is read as data.

use std::borrow::Cow;

use concepts::{ConceptDetector, Reader, Reading};

use crate::error::LlmError;

/// Distinctive instruction text of the summarization prompt (Section 3.1).
pub const SUMMARIZE_MARKER: &str = "You are a master of summarizing reviews";
/// Distinctive instruction text of the refinement prompt (Section 3.2).
pub const RERANK_MARKER: &str = "You are an assistant for location information sorting tasks";
/// Distinctive instruction text of the query-generation prompt (Section 4).
pub const QUERYGEN_MARKER: &str = "You are an expert in spatial keyword searching";

/// Where the summarization prompt's tips list starts.
const TIPS_SECTION: &str = "Now it is your turn:";
/// Where the refinement prompt's JSON array starts.
const RERANK_INFO_SECTION: &str = "\nInformation: ";
/// What follows the refinement prompt's JSON array.
const RERANK_QUERY_SECTION: &str = "\nQuery: ";
/// Where the query-generation prompt's information block starts (its
/// worked example has an `Information:` line of its own).
const QUERYGEN_INFO_SECTION: &str = "Now it is your turn.\nInformation: ";

/// The text after the first `anchor` that follows `marker` (or the
/// prompt's start, if `marker` is absent).
fn section<'a>(prompt: &'a str, marker: &str, anchor: &str) -> Option<&'a str> {
    let from = prompt.find(marker).unwrap_or(0);
    let at = from + prompt[from..].find(anchor)? + anchor.len();
    Some(&prompt[at..])
}

fn malformed(cause: impl Into<String>) -> LlmError {
    LlmError::MalformedPrompt {
        cause: cause.into(),
    }
}

/// Renders a Python-style list of strings: `['a', 'b']`.
#[must_use]
pub fn python_list(items: &[String]) -> String {
    let mut s = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push('\'');
        s.push_str(&item.replace('\\', "\\\\").replace('\'', "\\'"));
        s.push('\'');
    }
    s.push(']');
    s
}

/// Parses a Python-style list of single-quoted strings.
#[must_use]
pub fn parse_python_list(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut chars = s.chars().peekable();
    // Find opening bracket.
    for c in chars.by_ref() {
        if c == '[' {
            break;
        }
    }
    let mut cur: Option<String> = None;
    while let Some(c) = chars.next() {
        match (&mut cur, c) {
            (None, '\'') => cur = Some(String::new()),
            (None, ']') => break,
            (None, _) => {}
            (Some(s), '\\') => {
                if let Some(next) = chars.next() {
                    s.push(next);
                }
            }
            (Some(_), '\'') => {
                out.push(cur.take().expect("inside string"));
            }
            (Some(s), c) => s.push(c),
        }
    }
    out
}

/// The tip-summarization prompt (paper Section 3.1), filled with the tips
/// to summarize.
#[must_use]
pub fn summarize_prompt(tips: &[String]) -> String {
    format!(
        "{SUMMARIZE_MARKER}. Now I have some reviews, they are in the form of lists in Python \
and split with commas. I would like you to help me make a summary. Here are some examples:\n\
list:['Love Sonic but orders are constantly wrong', 'Foods always been good. Shakes r delicious!']\n\
Summary: The feedback highlights a mix of experiences at Sonic. While there is love for the \
brand and appreciation for the quality of food and delicious shakes, there is also frustration \
over frequent inaccuracies in order fulfillment.\n\
list:['Great patio for people watching', 'Service was slow but friendly']\n\
Summary: Visitors enjoy the patio and find the staff friendly, though service can be slow.\n\
{TIPS_SECTION} {}\nSummary:",
        python_list(tips)
    )
}

/// Extracts the tips list from a summarization prompt.
pub fn extract_tips(prompt: &str) -> Result<Vec<String>, LlmError> {
    let tail = section(prompt, SUMMARIZE_MARKER, TIPS_SECTION)
        .ok_or_else(|| malformed("missing 'Now it is your turn:' section"))?;
    let tips = parse_python_list(tail);
    if tips.is_empty() {
        return Err(malformed("empty or unparseable tips list"));
    }
    Ok(tips)
}

/// The refinement prompt's instructions (paper Section 3.2), between
/// [`RERANK_MARKER`] and the JSON array.
const RERANK_INSTRUCTIONS: &str = ". Below is the location information retrieved from the \
database, which will be given to you in JSON format. You are asked to filter and sort this \
information based on the question asked. You first need to determine whether the information is \
relevant to the question, and then sort all the relevant information. The ones that best match \
the question and help answer it have the highest priority. The format of your output must be a \
Python dictionary, where the key is the name of the location and the value is the reason why you \
chose this location and ranked it there. The location with the highest priority is placed \
higher, i.e., index is 0. Please note that there could be more than one result in the \
dictionary. If the information about a location could only partially match the question asked, \
you could also put it in the dictionary, but specify the advantages and disadvantages of this \
place in the value of the dictionary. If you could not complete the task or do not know the \
answer, just return the empty dictionary and don't refer to any additional knowledge.";

/// The refinement (re-ranking) prompt (paper Section 3.2), filled with
/// the candidate POIs (`pois_json`, a JSON array such as
/// `geotext::GeoTextObject::write_json` writes, one element a POI) and
/// the user query.
#[must_use]
pub fn rerank_prompt(pois_json: &str, query: &str) -> String {
    let parts = [
        RERANK_MARKER,
        RERANK_INSTRUCTIONS,
        RERANK_INFO_SECTION,
        pois_json,
        RERANK_QUERY_SECTION,
        query,
    ];
    let mut prompt = String::with_capacity(parts.iter().map(|p| p.len()).sum());
    parts.iter().for_each(|p| prompt.push_str(p));
    prompt
}

/// One candidate POI as the refinement prompt carries it: what the
/// simulated model reads of the POI's JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromptPoi {
    /// The element's top-level `name`, if that is a string; otherwise
    /// `<unnamed>`.
    pub name: String,
    /// The reading of the element's text: every string value, at any
    /// depth and in document order, each followed by `". "`. Keys,
    /// numbers, booleans and nulls contribute nothing.
    pub reading: Reading,
}

/// Extracts `(pois, query)` from a refinement prompt, reading its JSON
/// array in one pass with no value tree and no text copied: each string
/// value, once decoded (a slice of the prompt unless it holds an
/// escape), is fed with its `". "` straight into `detector`'s reader.
///
/// The array starts after the template's `Information:` line and must be
/// well-formed JSON (an element may be any value); the query is what
/// follows the array's closing bracket and the template's `Query:` line,
/// trimmed, whatever it contains. An object that repeats a key keeps
/// every value's strings in its reading, and its last `name`.
pub fn extract_rerank<'p>(
    prompt: &'p str,
    detector: &ConceptDetector,
) -> Result<(Vec<PromptPoi>, &'p str), LlmError> {
    let json = section(prompt, RERANK_MARKER, RERANK_INFO_SECTION)
        .ok_or_else(|| malformed("missing Information section"))?;
    let mut scan = Scanner { src: json, pos: 0 };
    let pois = scan
        .pois(&mut detector.reader())
        .map_err(|e| malformed(format!("bad POI JSON: {e} at byte {}", scan.pos)))?;
    let query = json[scan.pos..]
        .strip_prefix(RERANK_QUERY_SECTION)
        .ok_or_else(|| malformed("missing Query section"))?;
    Ok((pois, query.trim()))
}

/// Why a scan stopped.
type Scan<T> = Result<T, &'static str>;

/// A single forward pass over JSON text. Nesting is tracked on an
/// explicit stack of closing brackets, so a deep document costs heap in
/// proportion to its length, never the call stack.
struct Scanner<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The array of POIs, up to and including its `]`, each element's
    /// text read by `reader`.
    fn pois(&mut self, reader: &mut Reader<'_>) -> Scan<Vec<PromptPoi>> {
        self.skip_ws();
        if !self.eat(b'[') {
            return Err("expected `[`");
        }
        let mut pois = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(pois);
        }
        let mut stack = Vec::new();
        loop {
            let name = self.element(&mut stack, reader)?;
            pois.push(PromptPoi {
                name: name.map_or_else(|| "<unnamed>".to_owned(), Cow::into_owned),
                reading: reader.finish(),
            });
            self.skip_ws();
            if self.eat(b']') {
                return Ok(pois);
            }
            if !self.eat(b',') {
                return Err("expected `,` or `]`");
            }
        }
    }

    /// One array element: feeds each of its strings to `reader` and
    /// returns its top-level `name` string, if any.
    fn element(
        &mut self,
        stack: &mut Vec<u8>,
        reader: &mut Reader<'_>,
    ) -> Scan<Option<Cow<'a, str>>> {
        let mut name = None;
        // Whether the value about to be read is the element's `name`.
        let mut is_name = false;
        loop {
            self.skip_ws();
            let this_is_name = std::mem::take(&mut is_name);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    let s = self.string()?;
                    reader.push(&s);
                    reader.push(". ");
                    if this_is_name {
                        name = Some(s);
                    }
                }
                Some(b'[') => {
                    self.pos += 1;
                    self.skip_ws();
                    if !self.eat(b']') {
                        stack.push(b']');
                        continue;
                    }
                }
                Some(b'{') => {
                    self.pos += 1;
                    self.skip_ws();
                    if !self.eat(b'}') {
                        stack.push(b'}');
                        is_name = self.key(stack.len() == 1, &mut name)?;
                        continue;
                    }
                }
                Some(b't') => self.literal("true")?,
                Some(b'f') => self.literal("false")?,
                Some(b'n') => self.literal("null")?,
                Some(b'-' | b'0'..=b'9') => self.number()?,
                _ => return Err("unexpected character"),
            }
            // A value ended: close containers until one goes on.
            loop {
                let Some(&close) = stack.last() else {
                    return Ok(name);
                };
                self.skip_ws();
                if self.eat(b',') {
                    if close == b'}' {
                        is_name = self.key(stack.len() == 1, &mut name)?;
                    }
                    break;
                }
                if !self.eat(close) {
                    return Err(if close == b']' {
                        "expected `,` or `]`"
                    } else {
                        "expected `,` or `}`"
                    });
                }
                stack.pop();
            }
        }
    }

    /// An object key and its `:`. Returns whether it is `name` on the
    /// element itself (`top`), forgetting an earlier `name` if so: of a
    /// repeated key the last value counts.
    fn key(&mut self, top: bool, name: &mut Option<Cow<'a, str>>) -> Scan<bool> {
        self.skip_ws();
        if !self.eat(b'"') {
            return Err("expected a key");
        }
        let key = self.string()?;
        self.skip_ws();
        if !self.eat(b':') {
            return Err("expected `:`");
        }
        let is_name = top && key == "name";
        if is_name {
            *name = None;
        }
        Ok(is_name)
    }

    /// A string's content, its opening quote already read. A string
    /// without escapes is a slice of the input; one scan finds where
    /// each run of plain bytes stops.
    fn string(&mut self) -> Scan<Cow<'a, str>> {
        let bytes = self.src.as_bytes();
        let mut owned: Option<String> = None;
        let mut run = self.pos;
        loop {
            let Some(n) = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            else {
                self.pos = bytes.len();
                return Err("unterminated string");
            };
            self.pos += n;
            // `"` and `\\` are ASCII, so every cut is a char boundary.
            let plain = &self.src[run..self.pos];
            match bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(plain),
                        Some(mut s) => {
                            s.push_str(plain);
                            Cow::Owned(s)
                        }
                    });
                }
                b'\\' => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(plain);
                    self.pos += 1;
                    let c = self.escape()?;
                    s.push(c);
                    run = self.pos;
                }
                _ => return Err("control character in string"),
            }
        }
    }

    /// The character an escape stands for, its `\\` already read.
    fn escape(&mut self) -> Scan<char> {
        let Some(e) = self.peek() else {
            return Err("unterminated escape");
        };
        self.pos += 1;
        Ok(match e {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    if !(self.eat(b'\\') && self.eat(b'u')) {
                        return Err("lone surrogate");
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err("lone surrogate");
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(code).ok_or("lone surrogate")?
            }
            _ => return Err("invalid escape"),
        })
    }

    fn hex4(&mut self) -> Scan<u32> {
        let digits = self
            .src
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let mut v = 0;
        for &d in digits {
            v = v * 16 + char::from(d).to_digit(16).ok_or("invalid \\u escape")?;
        }
        self.pos += 4;
        Ok(v)
    }

    fn literal(&mut self, word: &str) -> Scan<()> {
        if !self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return Err("invalid literal");
        }
        self.pos += word.len();
        Ok(())
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Scan<()> {
        self.eat(b'-');
        if !self.eat(b'0') && !self.digits() {
            return Err("invalid number");
        }
        if self.eat(b'.') && !self.digits() {
            return Err("invalid number");
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if !self.digits() {
                return Err("invalid number");
            }
        }
        Ok(())
    }

    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }
}

/// The query-generation prompt (paper Section 4), filled with a POI
/// information block.
#[must_use]
pub fn querygen_prompt(info: &str) -> String {
    format!(
        "{QUERYGEN_MARKER} and I am now trying to perform spatial keyword searching using a \
large language model. In order to get a test set, I need you to help me write query questions \
based on the information I provide. In particular, I am asking to think of some questions that \
are difficult to answer with simple keyword matching, but are easier with the semantic \
capabilities of large language models, such as \"Find Japanese restaurants in Center City that \
offer a variety of sushi options\", where \"Japanese restaurants\" and \"sushi\" can be easily \
handled by keyword matching, while \"a variety of options\" may require semantic understanding. \
Also, please don't mention any location information in the query!\n\
Information: Pep Boys is located at Lafayette Road and primarily serves the category of \
Automotive, Tires, Oil Change Stations, Auto Parts & Supplies, Auto Repair. Customers often \
highlight: 'The reviews consistently praise the staff for being friendly, knowledgeable, and \
helpful.'\nQuestion: My car needs repair. Which service center is the most reliable?\n\
{QUERYGEN_INFO_SECTION}{info}\nQuestion:"
    )
}

/// Extracts the POI information block from a query-generation prompt.
pub fn extract_querygen(prompt: &str) -> Result<String, LlmError> {
    let rest = section(prompt, QUERYGEN_MARKER, QUERYGEN_INFO_SECTION)
        .ok_or_else(|| malformed("missing Information section"))?;
    // The template ends with `Question:`, so the last one is its own.
    let end = rest.rfind("\nQuestion:").unwrap_or(rest.len());
    let info = rest[..end].trim();
    if info.is_empty() {
        return Err(malformed("empty information block"));
    }
    Ok(info.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det() -> ConceptDetector {
        ConceptDetector::builtin()
    }

    #[test]
    fn python_list_roundtrip() {
        let tips = vec![
            "Amazing ice cream! So creamy".to_owned(),
            "It's the best, really".to_owned(),
        ];
        let rendered = python_list(&tips);
        assert!(rendered.starts_with('['));
        let parsed = parse_python_list(&rendered);
        assert_eq!(parsed, tips);
    }

    #[test]
    fn python_list_escapes_quotes() {
        let tips = vec!["Mike's 'famous' cones".to_owned()];
        assert_eq!(parse_python_list(&python_list(&tips)), tips);
    }

    #[test]
    fn summarize_prompt_extracts_tips() {
        let tips = vec!["great coffee".to_owned(), "cozy spot".to_owned()];
        let p = summarize_prompt(&tips);
        assert!(p.contains(SUMMARIZE_MARKER));
        assert_eq!(extract_tips(&p).unwrap(), tips);
    }

    #[test]
    fn rerank_prompt_roundtrip() {
        let pois = r#"[{"categories":"Bars, Nightlife","name":"Joe's Bar"},{"categories":"Coffee & Tea","name":"Cafe Uno"}]"#;
        let p = rerank_prompt(pois, "a bar to watch football");
        assert!(p.contains(RERANK_MARKER));
        let d = det();
        let (parsed, q) = extract_rerank(&p, &d).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "Joe's Bar");
        assert_eq!(parsed[0].reading, d.read("Bars, Nightlife. Joe's Bar. "));
        assert_eq!(q, "a bar to watch football");
    }

    #[test]
    fn rerank_query_with_newline_like_text() {
        let p = rerank_prompt(r#"[{"name":"X"}]"#, "sushi with a variety of options?");
        let (_, q) = extract_rerank(&p, &det()).unwrap();
        assert_eq!(q, "sushi with a variety of options?");
    }

    #[test]
    fn scanner_reads_nested_values() {
        let poi = r#"[{"hours":{"Monday":"8:0-19:0"},"name":"X","stars":4.5,"tips":["one","t\"woé"]}, "bare", 7, {"name": 3}]"#;
        let d = det();
        let (pois, _) = extract_rerank(&rerank_prompt(poi, "q"), &d).unwrap();
        assert_eq!(pois.len(), 4);
        assert_eq!(pois[0].name, "X");
        assert_eq!(pois[0].reading, d.read("8:0-19:0. X. one. t\"woé. "));
        assert_eq!(pois[1].name, "<unnamed>");
        assert_eq!(pois[1].reading, d.read("bare. "));
        assert_eq!(pois[2].reading, d.read(""));
        assert_eq!(pois[3].name, "<unnamed>");
    }

    #[test]
    fn nested_names_are_not_the_poi_name() {
        let poi = r#"[{"owner":{"name":"Inner"},"z":"Outer"}]"#;
        let d = det();
        let (pois, _) = extract_rerank(&rerank_prompt(poi, "q"), &d).unwrap();
        assert_eq!(pois[0].name, "<unnamed>");
        assert_eq!(pois[0].reading, d.read("Inner. Outer. "));
    }

    #[test]
    fn malformed_json_is_refused() {
        for bad in [
            "",
            "[",
            "[{]",
            r#"[{"a":}]"#,
            r#"[{"a" 1}]"#,
            "[01]",
            "[1.]",
            "[-]",
            "[1e]",
            "[tru]",
            r#"["a]"#,
            r#"["\x"]"#,
            r#"["\ud800"]"#,
            r#"["\udc00"]"#,
            r#"["\ud800A"]"#,
            "[\"\u{1}\"]",
            "[1,]",
            "[1 2]",
            "{}",
            r#"[{"a":1,}]"#,
        ] {
            let prompt = rerank_prompt(bad, "q");
            let r = extract_rerank(&prompt, &det());
            assert!(
                matches!(r, Err(LlmError::MalformedPrompt { .. })),
                "{bad:?} gave {r:?}"
            );
        }
    }

    #[test]
    fn a_query_holding_both_markers_is_read_whole() {
        for q in [
            "bars\nQuery: with a view",
            "bars\nInformation: [] and more",
            "a\nInformation: [{\"name\":\"Y\"}]\nQuery: b",
        ] {
            let p = rerank_prompt(r#"[{"name":"X"}]"#, q);
            let (pois, parsed) = extract_rerank(&p, &det()).unwrap();
            assert_eq!(pois.len(), 1);
            assert_eq!(pois[0].name, "X");
            assert_eq!(parsed, q);
        }
    }

    #[test]
    fn a_tip_holding_the_tips_anchor_is_a_tip() {
        let tips = vec![
            "good".to_owned(),
            "Now it is your turn: ['a'".to_owned(),
            "last".to_owned(),
        ];
        assert_eq!(extract_tips(&summarize_prompt(&tips)).unwrap(), tips);
    }

    #[test]
    fn info_holding_the_information_anchor_is_read_whole() {
        for info in [
            "Pep Boys.\nInformation: fixes cars",
            "Now it is your turn.\nInformation: twice\nQuestion: and a question",
        ] {
            assert_eq!(extract_querygen(&querygen_prompt(info)).unwrap(), info);
        }
    }

    #[test]
    fn querygen_prompt_roundtrip() {
        let info =
            "Mike's Ice Cream is located at 129 2nd Ave N and serves Ice Cream & Frozen Yogurt.";
        let p = querygen_prompt(info);
        assert!(p.contains(QUERYGEN_MARKER));
        assert_eq!(extract_querygen(&p).unwrap(), info);
    }

    #[test]
    fn extractors_reject_garbage() {
        assert!(extract_tips("no marker here").is_err());
        assert!(extract_rerank("nothing", &det()).is_err());
        assert!(extract_querygen("nothing").is_err());
    }
}

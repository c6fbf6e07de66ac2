//! Print then parse is the identity on `Value` trees, compact and
//! pretty: integers stay integers (to `i64::MIN` and `u64::MAX`), floats
//! stay floats bit for bit (`-0.0`, subnormals, exponent forms), and
//! strings and keys keep control, quote, backslash and non-BMP characters.

use proptest::prelude::*;
use serde_json::{Map, Value};

/// A random value tree at most `depth` containers deep.
struct Tree {
    depth: u32,
}

/// Characters the printer escapes or must pass through untouched.
const AWKWARD: &str =
    "\0\u{1}\u{8}\t\n\u{b}\u{c}\r\u{1f}\"\\/ aé\u{7f}\u{2028}\u{fffd}\u{1f980}\u{10000}\u{10ffff}";

fn string(rng: &mut TestRng) -> String {
    let len = (0usize..12).generate(rng);
    (0..len)
        .map(|_| {
            if (0u8..3).generate(rng) == 0 {
                // Any scalar value, surrogates excluded.
                let c = (0u32..0x0010_f800).generate(rng);
                char::from_u32(if c >= 0xd800 { c + 0x800 } else { c }).expect("a scalar value")
            } else {
                let i = (0..AWKWARD.chars().count()).generate(rng);
                AWKWARD.chars().nth(i).expect("in range")
            }
        })
        .collect()
}

fn float(rng: &mut TestRng) -> f64 {
    const EDGES: &[f64] = &[
        0.0,
        -0.0,
        1.0,
        -1.5,
        1e-300,
        1e300,
        f64::MIN_POSITIVE,
        5e-324,
        f64::MAX,
        f64::MIN,
        123_456_789.0,
        0.1,
    ];
    if (0u8..2).generate(rng) == 0 {
        return EDGES[(0..EDGES.len()).generate(rng)];
    }
    loop {
        let x = f64::from_bits((0u64..u64::MAX).generate(rng));
        if x.is_finite() {
            return x;
        }
    }
}

fn integer(rng: &mut TestRng) -> Value {
    match (0u8..6).generate(rng) {
        0 => Value::from(i64::MIN),
        1 => Value::from(i64::MAX),
        2 => Value::from(u64::MAX),
        3 => Value::from((i64::MAX as u64..=u64::MAX).generate(rng)),
        4 => Value::from((-1000i64..1000).generate(rng)),
        _ => Value::from((i64::MIN..i64::MAX).generate(rng)),
    }
}

impl Strategy for Tree {
    type Value = Value;

    fn generate(&self, rng: &mut TestRng) -> Value {
        let kinds = if self.depth == 0 { 5 } else { 7 };
        let inner = Tree {
            depth: self.depth.saturating_sub(1),
        };
        match (0u8..kinds).generate(rng) {
            0 => Value::Null,
            1 => Value::Bool((0u8..2).generate(rng) == 1),
            2 => integer(rng),
            3 => Value::from(float(rng)),
            4 => Value::String(string(rng)),
            5 => {
                let len = (0usize..5).generate(rng);
                Value::Array((0..len).map(|_| inner.generate(rng)).collect())
            }
            _ => {
                let len = (0usize..5).generate(rng);
                let map: Map = (0..len)
                    .map(|_| (string(rng), inner.generate(rng)))
                    .collect();
                Value::Object(map)
            }
        }
    }
}

/// Equality that also tells an integer from a float and `0.0` from
/// `-0.0` (the derived `PartialEq` does neither).
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => {
            x.is_f64() == y.is_f64()
                && if x.is_f64() {
                    x.as_f64().map(f64::to_bits) == y.as_f64().map(f64::to_bits)
                } else {
                    x.as_i64() == y.as_i64() && x.as_u64() == y.as_u64()
                }
        }
        (Value::Array(xs), Value::Array(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y))
        }
        (Value::Object(xs), Value::Object(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same(x, y))
        }
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn print_then_parse_is_the_identity(value in Tree { depth: 3 }) {
        let compact = serde_json::to_string(&value).unwrap();
        let pretty = serde_json::to_string_pretty(&value).unwrap();
        for text in [&compact, &pretty] {
            let parsed = serde_json::from_str(text).unwrap();
            prop_assert!(same(&parsed, &value), "{} parsed as {:?}", text, parsed);
        }
        prop_assert_eq!(value.to_string(), compact);
    }
}

#[test]
fn edge_numbers_print_as_expected() {
    for (value, text) in [
        (Value::from(i64::MIN), "-9223372036854775808"),
        (Value::from(u64::MAX), "18446744073709551615"),
        (Value::from(-0.0), "-0.0"),
        (Value::from(1e300), "1e300"),
        (Value::from(5e-324), "5e-324"),
        (Value::from(f64::NAN), "null"),
    ] {
        assert_eq!(serde_json::to_string(&value).unwrap(), text);
    }
}

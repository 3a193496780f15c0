//! Mutations of JSONL event lines for the reader's property tests: the
//! no-panic test in `prop_probe.rs` and, through a `#[path]` module, the
//! differential test in `src/probe.rs` of `parse_jsonl` against its
//! general reader alone.

use proptest::prelude::*;

/// One sample line per event variant.
pub const EVERY_EVENT: &str = include_str!("../../../../tests/data/golden_every_event.jsonl");

/// Values that stress the reader's integer and float handling, including
/// the edges of the in-order reader's number forms.
const NASTY_VALUES: &[&str] = &[
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999999",
    "1e999",
    "-1e999",
    "1e-999",
    "-1",
    "-0",
    "-4294967296",
    "0.5",
    "1e3",
    "999999999999999.0",
    "1000000000000000.0",
    "9007199254740993.0",
    "00.0",
    "-0.0",
    "1.50",
    "1e0",
    "1234567890123456789",
    "\"\"",
    "true",
    "null",
];

/// Whitespace the tokenizer skips (ASCII), the line trim removes
/// (Unicode no-break space) or neither does (vertical tab).
const WHITESPACE: &[&str] = &[
    " ", "\t", "\n", "\r", "\r\n", "\x0c", "\x0b", "\u{a0}", " \t ",
];

/// Escape sequences the reader decodes, and ones it rejects.
const ESCAPES: &[&str] = &[
    "\\\"", "\\\\", "\\/", "\\n", "\\t", "\\u0041", "\\u00E9", "\\uD800", "\\u+041", "\\u12",
    "\\b", "\\r", "\\x", "\\",
];

/// One mutation of a JSONL line; the `u64`s pick positions and values.
#[derive(Debug, Clone)]
pub enum Mutation {
    FlipByte(u64, u8),
    Truncate(u64),
    DeleteKey(u64),
    DuplicateKey(u64, u64),
    ReplaceValue(u64, u64),
    RandomValue(u64, u64),
    /// Inserts whitespace `.1` at character boundary `.0`.
    InsertWhitespace(u64, u64),
    /// Spells one character of a quoted key or value as a `\uXXXX`
    /// escape, which reads back as the same text.
    EscapeChar(u64, u64),
    /// Inserts escape sequence `.2` into a quoted key or value.
    InsertEscape(u64, u64, u64),
}

pub fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<u64>(), any::<u64>())
            .prop_map(|(at, bits)| Mutation::FlipByte(at, (bits % 255) as u8 + 1)),
        any::<u64>().prop_map(Mutation::Truncate),
        any::<u64>().prop_map(Mutation::DeleteKey),
        (any::<u64>(), any::<u64>()).prop_map(|(k, at)| Mutation::DuplicateKey(k, at)),
        (any::<u64>(), any::<u64>()).prop_map(|(k, v)| Mutation::ReplaceValue(k, v)),
        (any::<u64>(), any::<u64>()).prop_map(|(k, v)| Mutation::RandomValue(k, v)),
        (any::<u64>(), any::<u64>()).prop_map(|(at, w)| Mutation::InsertWhitespace(at, w)),
        (any::<u64>(), any::<u64>()).prop_map(|(s, at)| Mutation::EscapeChar(s, at)),
        (any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(s, at, e)| Mutation::InsertEscape(s, at, e)),
    ]
}

/// The `"key":value` pairs of a flat object line. Event lines hold no
/// commas inside values, so a split on ',' is exact for unmutated lines
/// and merely arbitrary for mutated ones.
fn pairs(line: &str) -> Vec<String> {
    let inner = line.strip_prefix('{').unwrap_or(line);
    let inner = inner.strip_suffix('}').unwrap_or(inner);
    inner.split(',').map(str::to_string).collect()
}

fn object(pairs: &[String]) -> String {
    format!("{{{}}}", pairs.join(","))
}

fn with_value(pair: &str, value: &str) -> String {
    match pair.split_once(':') {
        Some((key, _)) => format!("{key}:{value}"),
        None => pair.to_string(),
    }
}

/// Byte ranges of the text between each pair of `"`, left to right.
fn quoted(line: &str) -> Vec<(usize, usize)> {
    let quotes: Vec<usize> = line.match_indices('"').map(|(i, _)| i).collect();
    quotes.chunks_exact(2).map(|q| (q[0] + 1, q[1])).collect()
}

fn pick(n: usize, k: u64) -> usize {
    (k % n as u64) as usize
}

/// Character `at` (or the end) of quoted text `s` of `line`, as a byte
/// offset, with the character there.
fn char_in_quoted(line: &str, s: u64, at: u64) -> Option<(usize, Option<char>)> {
    let spans = quoted(line);
    if spans.is_empty() {
        return None;
    }
    let (a, b) = spans[pick(spans.len(), s)];
    let mut chars: Vec<(usize, Option<char>)> = line[a..b]
        .char_indices()
        .map(|(i, c)| (a + i, Some(c)))
        .collect();
    chars.push((b, None));
    Some(chars[pick(chars.len(), at)])
}

pub fn mutate(line: &str, m: &Mutation) -> String {
    let mut p = pairs(line);
    match *m {
        Mutation::FlipByte(at, bits) => {
            let mut bytes = line.as_bytes().to_vec();
            if !bytes.is_empty() {
                let i = pick(bytes.len(), at);
                bytes[i] ^= bits;
            }
            return String::from_utf8_lossy(&bytes).into_owned();
        }
        Mutation::Truncate(at) => {
            let bytes = &line.as_bytes()[..pick(line.len() + 1, at)];
            return String::from_utf8_lossy(bytes).into_owned();
        }
        Mutation::DeleteKey(k) => {
            p.remove(pick(p.len(), k));
        }
        Mutation::DuplicateKey(k, at) => {
            let dup = p[pick(p.len(), k)].clone();
            p.insert(pick(p.len() + 1, at), dup);
        }
        Mutation::ReplaceValue(k, v) => {
            let i = pick(p.len(), k);
            p[i] = with_value(&p[i], NASTY_VALUES[pick(NASTY_VALUES.len(), v)]);
        }
        Mutation::RandomValue(k, v) => {
            let i = pick(p.len(), k);
            p[i] = with_value(&p[i], &v.to_string());
        }
        Mutation::InsertWhitespace(at, w) => {
            let mut bounds: Vec<usize> = line.char_indices().map(|(i, _)| i).collect();
            bounds.push(line.len());
            let mut out = line.to_string();
            out.insert_str(
                bounds[pick(bounds.len(), at)],
                WHITESPACE[pick(WHITESPACE.len(), w)],
            );
            return out;
        }
        Mutation::EscapeChar(s, at) => {
            let mut out = line.to_string();
            if let Some((i, Some(c))) = char_in_quoted(line, s, at) {
                if let Ok(code) = u16::try_from(c as u32) {
                    let esc = if at % 2 == 0 {
                        format!("\\u{code:04x}")
                    } else {
                        format!("\\u{code:04X}")
                    };
                    out.replace_range(i..i + c.len_utf8(), &esc);
                }
            }
            return out;
        }
        Mutation::InsertEscape(s, at, e) => {
            let mut out = line.to_string();
            if let Some((i, _)) = char_in_quoted(line, s, at) {
                out.insert_str(i, ESCAPES[pick(ESCAPES.len(), e)]);
            }
            return out;
        }
    }
    object(&p)
}

//! The workspace's one JSON codec.
//!
//! Every durable record the workspace writes — campaign unit records,
//! reports and manifests, model snapshots, serve session checkpoints and
//! the warm store — is JSON built and read through this module. The build
//! environment has no registry access, so the codec is hand-written
//! instead of going through `serde_json`; the output is plain JSON that any
//! external tool can load.
//!
//! The module has two layers:
//!
//! * [`JsonValue`]: a strict parser and a canonical writer (no whitespace,
//!   insertion-ordered fields, shortest round-trip floats). Equal values
//!   always serialize to identical bytes, which is what the campaign
//!   ledger's byte-identical shard/resume/merge guarantee rests on.
//! * Free functions holding every exact-number and field rule of the
//!   durable formats, so no format re-derives them:
//!   - [`object`] builds an object from `(name, value)` pairs;
//!   - [`int`] writes an integer as a JSON number and refuses anything
//!     above [`JsonValue::MAX_EXACT_INTEGER`] (2^53), which an `f64`
//!     number could not hold exactly;
//!   - [`hex_u64`], [`hex_f64`], [`hex_f64s`] and [`hex_u32s`] write
//!     full-range `u64` values and `f64` bit patterns as fixed-width
//!     lowercase hex strings (16 digits per `u64`/`f64`, 8 per `u32`;
//!     columns concatenate one chunk per value). Hex keeps seeds above
//!     2^53 exact and carries NaN and infinities, which JSON numbers
//!     cannot;
//!   - [`decode_hex_u64`], [`decode_hex_f64s`] and [`decode_hex_u32s`]
//!     accept exactly that form: the fixed number of lowercase hex digits
//!     and nothing else (no sign, no other width), so every value they
//!     accept re-encodes to the same bytes;
//!   - the `field_*` getters read one typed field and name it in their
//!     errors; [`optional_field`] reads a field that may be absent and
//!     [`nullable`] one that may be `null`.

use std::fmt::Write as _;

use crate::{DataError, Result};

/// Maximum container nesting the parser accepts. The durable formats need
/// at most five levels; the bound turns adversarially nested input into a
/// parse error instead of a stack overflow.
const MAX_DEPTH: usize = 128;

fn parse_error(message: impl Into<String>) -> DataError {
    DataError::Parse(message.into())
}

/// A parsed JSON document.
///
/// This is the workspace's registry-free substitute for `serde_json::Value`
/// (the vendored `serde` is a no-op marker): a plain tree with a strict
/// parser ([`JsonValue::parse`]) and a canonical writer
/// ([`JsonValue::to_json_string`]). Object fields keep their insertion
/// order, numbers are `f64` (exact for integers up to 2^53), and the writer
/// emits the shortest float representation that round-trips bit-exactly —
/// the property the campaign ledger's byte-identical merge guarantee rests
/// on.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A JSON number (always stored as `f64`).
    Number(f64),
    /// A JSON string.
    String(String),
    /// A JSON array.
    Array(Vec<JsonValue>),
    /// A JSON object; fields keep their insertion order.
    Object(Vec<(String, JsonValue)>),
    /// A JSON boolean.
    Bool(bool),
    /// The JSON `null` literal.
    Null,
}

impl JsonValue {
    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Parse`] on malformed input, trailing characters,
    /// nesting beyond an internal depth bound, or numbers outside the finite
    /// `f64` range.
    pub fn parse(text: &str) -> Result<JsonValue> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.parse_value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parse_error("trailing characters after the JSON document"));
        }
        Ok(value)
    }

    /// Looks up a field of an object.
    ///
    /// # Errors
    ///
    /// Returns a parse error when `self` is not an object or the field is
    /// missing.
    pub fn field<'a>(&'a self, name: &str) -> Result<&'a JsonValue> {
        match self {
            JsonValue::Object(fields) => fields
                .iter()
                .find(|(key, _)| key == name)
                .map(|(_, value)| value)
                .ok_or_else(|| parse_error(format!("missing field '{name}'"))),
            _ => Err(parse_error(format!(
                "expected an object with field '{name}'"
            ))),
        }
    }

    /// The value as a number.
    ///
    /// # Errors
    ///
    /// Returns a parse error when the value is not a number.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            JsonValue::Number(n) => Ok(*n),
            _ => Err(parse_error("expected a number")),
        }
    }

    /// The value as a non-negative integer.
    ///
    /// # Errors
    ///
    /// Returns a parse error when the value is not a non-negative integer
    /// representable exactly in `f64`.
    pub fn as_usize(&self) -> Result<usize> {
        usize::try_from(self.as_u64()?).map_err(|_| parse_error("integer out of range"))
    }

    /// Largest integer representable exactly in the `f64` numbers of a
    /// [`JsonValue`] (2^53). [`JsonValue::as_u64`] rejects anything larger
    /// and [`int`] refuses to write it, so every integer written can be
    /// read back.
    pub const MAX_EXACT_INTEGER: u64 = 1 << 53;

    /// The value as a non-negative 64-bit integer.
    ///
    /// # Errors
    ///
    /// Returns a parse error when the value is not a non-negative integer
    /// representable exactly in `f64` (everything above
    /// [`JsonValue::MAX_EXACT_INTEGER`] has lost integer precision, and
    /// `as u64` would silently saturate).
    pub fn as_u64(&self) -> Result<u64> {
        let n = self.as_f64()?;
        if n < 0.0 || n.fract() != 0.0 || n > Self::MAX_EXACT_INTEGER as f64 {
            return Err(parse_error("expected a non-negative integer"));
        }
        Ok(n as u64)
    }

    /// The value as an array.
    ///
    /// # Errors
    ///
    /// Returns a parse error when the value is not an array.
    pub fn as_array(&self) -> Result<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Ok(items),
            _ => Err(parse_error("expected an array")),
        }
    }

    /// The value as a string.
    ///
    /// # Errors
    ///
    /// Returns a parse error when the value is not a string.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            JsonValue::String(s) => Ok(s),
            _ => Err(parse_error("expected a string")),
        }
    }

    /// Whether the value is the `null` literal.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Serializes the value in canonical form: no whitespace, object fields
    /// in insertion order, floats in Rust's shortest round-trip
    /// representation. Writing and re-parsing a value is the identity, and
    /// two equal values always serialize to identical bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::NonFinite`] when the tree contains a NaN or an
    /// infinite number (JSON cannot represent them).
    pub fn to_json_string(&self) -> Result<String> {
        let mut out = String::new();
        self.write_into(&mut out)?;
        Ok(out)
    }

    /// Appends the canonical serialization to `out` (the allocation-reusing
    /// core of [`JsonValue::to_json_string`]).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::NonFinite`] when the tree contains a NaN or an
    /// infinite number.
    pub fn write_into(&self, out: &mut String) -> Result<()> {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => {
                if !n.is_finite() {
                    return Err(DataError::NonFinite {
                        field: "json number",
                    });
                }
                let _ = write!(out, "{n:?}");
            }
            JsonValue::String(s) => write_json_string(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out)?;
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, key);
                    out.push(':');
                    value.write_into(out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(parse_error(format!(
                "expected '{}' at byte {}",
                byte as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_keyword("null", JsonValue::Null),
            Some(_) => self.parse_number(),
            None => Err(parse_error("unexpected end of input")),
        }
    }

    fn nested(&mut self, parse: impl FnOnce(&mut Self) -> Result<JsonValue>) -> Result<JsonValue> {
        if self.depth >= MAX_DEPTH {
            return Err(parse_error("maximum nesting depth exceeded"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_keyword(&mut self, keyword: &str, value: JsonValue) -> Result<JsonValue> {
        if self.bytes[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            Ok(value)
        } else {
            Err(parse_error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => {
                    return Err(parse_error(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => {
                    return Err(parse_error(format!(
                        "expected ',' or ']' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(parse_error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.parse_hex4()?;
                            let code = if (0xD800..=0xDBFF).contains(&code) {
                                // UTF-16 surrogate pair (e.g. Python's
                                // `ensure_ascii` output): the low half must
                                // follow as another \u escape.
                                if self.bytes.get(self.pos + 1..self.pos + 3) != Some(b"\\u") {
                                    return Err(parse_error("unpaired UTF-16 high surrogate"));
                                }
                                self.pos += 2;
                                let low = self.parse_hex4()?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(parse_error("invalid UTF-16 low surrogate"));
                                }
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| parse_error("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(parse_error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) => {
                    // Consume one UTF-8 encoded character. Only the bytes of
                    // this character are validated (the lead byte gives the
                    // length), keeping string parsing O(n) overall.
                    let len = match b {
                        0x00..=0x7F => 1,
                        0xC2..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF4 => 4,
                        _ => return Err(parse_error("invalid UTF-8 in string")),
                    };
                    let slice = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .ok_or_else(|| parse_error("truncated UTF-8 character"))?;
                    let c = std::str::from_utf8(slice)
                        .map_err(|_| parse_error("invalid UTF-8 in string"))?
                        .chars()
                        .next()
                        .expect("non-empty by construction");
                    out.push(c);
                    self.pos += len;
                }
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape (cursor on the `u`),
    /// leaving the cursor on the last digit. JSON allows either case.
    fn parse_hex4(&mut self) -> Result<u32> {
        let digits = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| parse_error("truncated \\u escape"))?;
        let code = hex_digits(digits, true).ok_or_else(|| parse_error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code as u32)
    }

    fn parse_number(&mut self) -> Result<JsonValue> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(parse_error(format!("expected a value at byte {start}")));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| parse_error("invalid number"))?;
        let number = text
            .parse::<f64>()
            .map_err(|_| parse_error(format!("invalid number '{text}'")))?;
        // str::parse saturates out-of-range magnitudes (1e999 -> inf); reject
        // them so loaded datasets keep the finiteness invariant the writer
        // enforces.
        if !number.is_finite() {
            return Err(parse_error(format!("number '{text}' is out of range")));
        }
        Ok(JsonValue::Number(number))
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Decodes `digits` as exactly `digits.len()` hex digits: no sign, no
/// prefix, uppercase only when `upper` allows it. The caller fixes the
/// width; at most 16 digits fit the result.
fn hex_digits(digits: &[u8], upper: bool) -> Option<u64> {
    digits.iter().try_fold(0u64, |acc, &b| {
        let digit = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            b'A'..=b'F' if upper => b - b'A' + 10,
            _ => return None,
        };
        Some(acc << 4 | u64::from(digit))
    })
}

// --- Encoders of the durable formats. ----------------------------------------

/// Builds a JSON object from `(name, value)` pairs, keeping their order.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(name, value)| (name.to_string(), value))
            .collect(),
    )
}

/// Encodes an integer as a JSON number.
///
/// # Errors
///
/// Returns [`DataError::InexactInteger`] above
/// [`JsonValue::MAX_EXACT_INTEGER`]: the `f64` number could not hold the
/// value exactly, and [`JsonValue::as_u64`] would reject it on the way
/// back.
pub fn int(n: u64) -> Result<JsonValue> {
    if n > JsonValue::MAX_EXACT_INTEGER {
        return Err(DataError::InexactInteger(n));
    }
    Ok(JsonValue::Number(n as f64))
}

/// A full-range `u64` (a seed or fingerprint) as 16 lowercase hex digits.
pub fn hex_u64(x: u64) -> JsonValue {
    JsonValue::String(format!("{x:016x}"))
}

/// The bit pattern of an `f64` as 16 lowercase hex digits: exact for every
/// value, NaN and infinities included.
pub fn hex_f64(x: f64) -> JsonValue {
    hex_u64(x.to_bits())
}

/// A packed `f64` column: one [`hex_f64`] chunk per value in one string.
pub fn hex_f64s(values: impl IntoIterator<Item = f64>) -> JsonValue {
    let mut out = String::new();
    for v in values {
        let _ = write!(out, "{:016x}", v.to_bits());
    }
    JsonValue::String(out)
}

/// A packed `u32` column: 8 lowercase hex digits per value in one string.
pub fn hex_u32s(values: impl IntoIterator<Item = u32>) -> JsonValue {
    let mut out = String::new();
    for v in values {
        let _ = write!(out, "{v:08x}");
    }
    JsonValue::String(out)
}

// --- Decoders of the durable formats. ----------------------------------------

/// Decodes a [`hex_u64`] string.
///
/// # Errors
///
/// Returns a parse error unless `text` is exactly 16 lowercase hex digits.
pub fn decode_hex_u64(text: &str) -> Result<u64> {
    let value = if text.len() == 16 {
        hex_digits(text.as_bytes(), false)
    } else {
        None
    };
    value.ok_or_else(|| parse_error(format!("{text:?} is not 16 lowercase hex digits")))
}

/// Splits a packed column into `width`-digit chunks and decodes each.
fn decode_column<T>(text: &str, width: usize, decode: impl Fn(u64) -> T) -> Result<Vec<T>> {
    if !text.len().is_multiple_of(width) {
        return Err(parse_error(format!(
            "hex column length {} is not a multiple of {width}",
            text.len()
        )));
    }
    text.as_bytes()
        .chunks_exact(width)
        .map(|chunk| {
            hex_digits(chunk, false).map(&decode).ok_or_else(|| {
                parse_error(format!(
                    "hex column chunk {:?} is not {width} lowercase hex digits",
                    String::from_utf8_lossy(chunk)
                ))
            })
        })
        .collect()
}

/// Decodes a [`hex_f64s`] column.
///
/// # Errors
///
/// Returns a parse error unless `text` is a whole number of 16-digit
/// lowercase hex chunks.
pub fn decode_hex_f64s(text: &str) -> Result<Vec<f64>> {
    decode_column(text, 16, f64::from_bits)
}

/// Decodes a [`hex_u32s`] column.
///
/// # Errors
///
/// Returns a parse error unless `text` is a whole number of 8-digit
/// lowercase hex chunks.
pub fn decode_hex_u32s(text: &str) -> Result<Vec<u32>> {
    decode_column(text, 8, |v| v as u32)
}

/// Looks up a field that canonical output omits when empty, so records
/// written before the field existed keep their bytes. `None` when `doc`
/// has no such field (or is not an object).
pub fn optional_field<'a>(doc: &'a JsonValue, name: &str) -> Option<&'a JsonValue> {
    match doc {
        JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

/// Reads field `name` of `doc` through `read`, naming the field in a type
/// error (a missing field already names itself).
fn read_field<'a, T>(
    doc: &'a JsonValue,
    name: &str,
    read: impl FnOnce(&'a JsonValue) -> Result<T>,
) -> Result<T> {
    read(doc.field(name)?).map_err(|e| match e {
        DataError::Parse(message) => parse_error(format!("field {name}: {message}")),
        other => other,
    })
}

/// `Ok(None)` when field `name` is `null`, otherwise `read(doc, name)`.
///
/// # Errors
///
/// Returns a parse error when the field is missing or `read` fails.
pub fn nullable<'a, T>(
    doc: &'a JsonValue,
    name: &str,
    read: fn(&'a JsonValue, &str) -> Result<T>,
) -> Result<Option<T>> {
    if doc.field(name)?.is_null() {
        Ok(None)
    } else {
        read(doc, name).map(Some)
    }
}

/// Field `name` as a string.
///
/// # Errors
///
/// Returns a parse error naming the field when it is missing or not a
/// string.
pub fn field_str<'a>(doc: &'a JsonValue, name: &str) -> Result<&'a str> {
    read_field(doc, name, JsonValue::as_str)
}

/// Field `name` as a number.
///
/// # Errors
///
/// Returns a parse error naming the field when it is missing or not a
/// number.
pub fn field_f64(doc: &JsonValue, name: &str) -> Result<f64> {
    read_field(doc, name, JsonValue::as_f64)
}

/// Field `name` as an integer written by [`int`].
///
/// # Errors
///
/// Returns a parse error naming the field when it is missing or not a
/// non-negative integer of at most 2^53.
pub fn field_u64(doc: &JsonValue, name: &str) -> Result<u64> {
    read_field(doc, name, JsonValue::as_u64)
}

/// Field `name` as a `usize` written by [`int`].
///
/// # Errors
///
/// As [`field_u64`], plus values that do not fit a `usize`.
pub fn field_usize(doc: &JsonValue, name: &str) -> Result<usize> {
    read_field(doc, name, JsonValue::as_usize)
}

/// Field `name` as an array.
///
/// # Errors
///
/// Returns a parse error naming the field when it is missing or not an
/// array.
pub fn field_array<'a>(doc: &'a JsonValue, name: &str) -> Result<&'a [JsonValue]> {
    read_field(doc, name, JsonValue::as_array)
}

/// Field `name` as a [`hex_u64`] string.
///
/// # Errors
///
/// Returns a parse error naming the field when it is missing or not 16
/// lowercase hex digits.
pub fn field_hex_u64(doc: &JsonValue, name: &str) -> Result<u64> {
    read_field(doc, name, |v| decode_hex_u64(v.as_str()?))
}

/// Field `name` as a [`hex_f64`] string.
///
/// # Errors
///
/// As [`field_hex_u64`].
pub fn field_hex_f64(doc: &JsonValue, name: &str) -> Result<f64> {
    field_hex_u64(doc, name).map(f64::from_bits)
}

/// Field `name` as a [`hex_f64s`] column.
///
/// # Errors
///
/// Returns a parse error naming the field when it is missing or not a
/// whole number of 16-digit lowercase hex chunks.
pub fn field_hex_f64s(doc: &JsonValue, name: &str) -> Result<Vec<f64>> {
    read_field(doc, name, |v| decode_hex_f64s(v.as_str()?))
}

/// Field `name` as a [`hex_u32s`] column.
///
/// # Errors
///
/// Returns a parse error naming the field when it is missing or not a
/// whole number of 8-digit lowercase hex chunks.
pub fn field_hex_u32s(doc: &JsonValue, name: &str) -> Result<Vec<u32>> {
    read_field(doc, name, |v| decode_hex_u32s(v.as_str()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_err(text: &str) -> String {
        JsonValue::parse(text).unwrap_err().to_string()
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        assert!(parse_err("not json").contains("parse"));
        assert!(parse_err("{\"a\":1").contains("parse"));
        assert!(parse_err("[1,]").contains("parse"));
        assert!(parse_err("[1] x").contains("trailing"));
    }

    #[test]
    fn out_of_range_numbers_are_rejected_on_read() {
        let err = parse_err("{\"mean_runtime\":1e999}");
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn deeply_nested_input_is_a_parse_error_not_a_stack_overflow() {
        assert!(parse_err(&"[".repeat(100_000)).contains("depth"));
    }

    #[test]
    fn json_value_roundtrip_is_the_identity() {
        let value = JsonValue::Object(vec![
            ("a".to_string(), JsonValue::Number(0.1 + 0.2)),
            ("b".to_string(), JsonValue::Number(-0.0)),
            ("c".to_string(), JsonValue::Number(1e-300)),
            ("n".to_string(), JsonValue::Null),
            ("t".to_string(), JsonValue::Bool(true)),
            (
                "s".to_string(),
                JsonValue::String("quote \" slash \\ tab\t".to_string()),
            ),
            (
                "v".to_string(),
                JsonValue::Array(vec![JsonValue::Number(5.0), JsonValue::Number(42.0)]),
            ),
        ]);
        let text = value.to_json_string().unwrap();
        let reparsed = JsonValue::parse(&text).unwrap();
        assert_eq!(reparsed, value);
        // Canonical: serializing the reparsed tree gives identical bytes.
        assert_eq!(reparsed.to_json_string().unwrap(), text);
    }

    #[test]
    fn json_value_writer_rejects_non_finite_numbers() {
        let value = JsonValue::Array(vec![JsonValue::Number(f64::NAN)]);
        let err = value.to_json_string().unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn json_value_integer_accessors_validate() {
        let v = JsonValue::parse("[5, 5.5, -1, 1e300]").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_u64().unwrap(), 5);
        assert_eq!(items[0].as_usize().unwrap(), 5);
        assert!(items[1].as_u64().is_err());
        assert!(items[2].as_u64().is_err());
        assert!(items[3].as_u64().is_err());
        assert!(JsonValue::Null.is_null());
        assert!(!items[0].is_null());
    }

    #[test]
    fn utf16_surrogate_pairs_in_strings_are_decoded() {
        // External tools (e.g. Python's json with ensure_ascii) escape
        // astral-plane characters as surrogate pairs.
        let value = JsonValue::parse("{\"kernel\":\"k\\ud83d\\ude00\"}").unwrap();
        assert_eq!(field_str(&value, "kernel").unwrap(), "k\u{1F600}");
        assert!(parse_err("{\"kernel\":\"\\ud83d oops\"}").contains("surrogate"));
        assert!(parse_err("\"\\ud83d\\u0041\"").contains("surrogate"));
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits_of_either_case() {
        assert_eq!(
            JsonValue::parse("\"\\u00e9\\u00E9\"").unwrap(),
            JsonValue::String("\u{e9}\u{e9}".to_string())
        );
        // A sign is not a hex digit: `\u+041` is not `A`.
        assert!(parse_err("\"\\u+041\"").contains("escape"));
        assert!(parse_err("\"\\u-041\"").contains("escape"));
        assert!(parse_err("\"\\u04\"").contains("escape"));
    }

    #[test]
    fn integers_above_two_to_the_53_are_refused_at_encode_time() {
        let max = JsonValue::MAX_EXACT_INTEGER;
        assert_eq!(int(max).unwrap().as_u64().unwrap(), max);
        let err = int(max + 1).unwrap_err();
        assert!(err.to_string().contains("2^53"), "{err}");
    }

    #[test]
    fn non_finite_values_are_rejected_at_write_time() {
        // A JSON number cannot carry NaN; its bit pattern in hex can.
        let doc = object([("variance", JsonValue::Number(f64::NAN))]);
        assert!(doc.to_json_string().is_err());
        let doc = object([("variance", hex_f64(f64::NAN))]);
        let text = doc.to_json_string().unwrap();
        let back = field_hex_f64(&JsonValue::parse(&text).unwrap(), "variance").unwrap();
        assert_eq!(back.to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn roundtrip_is_exact_for_awkward_floats() {
        let value = JsonValue::Array(
            [0.1 + 0.2, 1.0 / 3.0, f64::MIN_POSITIVE, 1e-300, -0.0]
                .map(JsonValue::Number)
                .into_iter()
                .chain([JsonValue::String("kernel \"x\"\n\u{1}".to_string())])
                .collect(),
        );
        let text = value.to_json_string().unwrap();
        let back = JsonValue::parse(&text).unwrap();
        assert_eq!(back, value);
        if let (JsonValue::Array(a), JsonValue::Array(b)) = (&value, &back) {
            for (x, y) in a.iter().zip(b).take(5) {
                assert_eq!(x.as_f64().unwrap().to_bits(), y.as_f64().unwrap().to_bits());
            }
        }
    }

    #[test]
    fn fixed_width_hex_rejects_signs_other_widths_and_uppercase() {
        // Every accepted value must re-encode to the bytes it came from.
        for bad in [
            "2a",
            "+00000000000002a",
            "-00000000000002a",
            "000000000000002A",
            "0x0000000000002a",
            "00000000000000002a",
            " 00000000000002a",
        ] {
            assert!(decode_hex_u64(bad).is_err(), "{bad:?} accepted");
        }
        for x in [0, 7, u64::MAX, 0xdead_beef_0123_4567] {
            assert_eq!(decode_hex_u64(hex_u64(x).as_str().unwrap()).unwrap(), x);
        }
        assert!(decode_hex_f64s("+000000000000001").is_err());
        assert!(decode_hex_f64s("3FF0000000000000").is_err());
        assert!(decode_hex_f64s("0123").is_err());
        assert!(decode_hex_f64s("zzzzzzzzzzzzzzzz").is_err());
        assert!(decode_hex_u32s("+0000001").is_err());
        assert!(decode_hex_u32s("123").is_err());
        assert!(decode_hex_u32s("000000\u{e9}").is_err());
    }

    #[test]
    fn missing_fields_are_parse_errors() {
        let doc = JsonValue::parse("{\"kernel\":\"toy\"}").unwrap();
        let err = field_array(&doc, "points").unwrap_err();
        assert!(matches!(err, DataError::Parse(_)));
        assert!(err.to_string().contains("points"), "{err}");
        assert!(nullable(&doc, "points", field_usize).is_err());
        assert!(field_str(&JsonValue::Null, "kernel").is_err());
    }

    #[test]
    fn field_getters_name_the_field_in_their_errors() {
        let doc = object([
            ("seed", hex_u64(42)),
            ("count", JsonValue::Number(3.0)),
            ("gone", JsonValue::Null),
        ]);
        assert_eq!(field_hex_u64(&doc, "seed").unwrap(), 42);
        assert_eq!(field_usize(&doc, "count").unwrap(), 3);
        assert_eq!(nullable(&doc, "gone", field_usize).unwrap(), None);
        assert_eq!(nullable(&doc, "count", field_usize).unwrap(), Some(3));
        assert!(optional_field(&doc, "absent").is_none());
        assert!(optional_field(&doc, "count").is_some());
        for (err, name) in [
            (field_str(&doc, "count").unwrap_err(), "count"),
            (field_hex_u64(&doc, "count").unwrap_err(), "count"),
            (field_array(&doc, "seed").unwrap_err(), "seed"),
            (field_f64(&doc, "missing").unwrap_err(), "missing"),
        ] {
            assert!(err.to_string().contains(name), "{err}");
        }
    }
}

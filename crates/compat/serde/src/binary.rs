//! The binary tag-length-value codec of the serde data model: the only
//! definition of the tags, the bounds checks and the decoding limits.
//!
//! Every value starts with a one-byte tag. Integers and floats follow as
//! 8 little-endian bytes (`f64`s as their raw IEEE-754 bits, so NaN
//! payloads and signed zeros survive); strings as a `u64` byte length and
//! UTF-8 bytes; sequences as a `u64` element count and the elements; maps
//! as a `u64` entry count and, per entry, a `u64`-length UTF-8 key (no
//! tag) followed by the value.
//!
//! Types reach the bytes two ways, which produce and accept exactly the
//! same bytes:
//!
//! * **Direct** — [`Serialize::write_binary`] writes the bytes straight
//!   from typed values and [`Deserialize::read_binary`] builds typed values
//!   straight from the bytes, with no intermediate [`Value`] tree. Every
//!   program takes this path: the derives, the primitives, the containers
//!   and the hand-written model types alike. A reader accepts only the
//!   canonical tag its type's writer emits; any other tag (an `f64` stored
//!   as `U64`, a label stored as `I64`) is a [`DeError`]. Map entries a
//!   reader does not want are checked and stepped over by [`skip_value`],
//!   which builds nothing.
//! * **Through [`Value`]** — [`encode_value`] and [`decode_value`]. They
//!   serve the tree itself and the reference route the parity tests hold
//!   the direct path to; the tree's number views are exact-variant, so
//!   this route refuses every non-canonical tag the direct path refuses.
//!
//! Decoding is hardened the same way on both paths: every length is
//! checked against the bytes left before it is trusted, up-front
//! reservations are capped, strings and keys must be UTF-8, nesting deeper
//! than [`MAX_DEPTH`] is refused, and [`from_slice`] rejects trailing bytes.

use crate::{DeError, Deserialize, Serialize, Value};

/// Tag of `Value::Null` (also `Option::None`).
pub const TAG_NULL: u8 = 0;
/// Tag of `false`.
pub const TAG_FALSE: u8 = 1;
/// Tag of `true`.
pub const TAG_TRUE: u8 = 2;
/// Tag of an unsigned integer.
pub const TAG_U64: u8 = 3;
/// Tag of a signed integer.
pub const TAG_I64: u8 = 4;
/// Tag of a float.
pub const TAG_F64: u8 = 5;
/// Tag of a string.
pub const TAG_STR: u8 = 6;
/// Tag of a sequence.
pub const TAG_SEQ: u8 = 7;
/// Tag of a map.
pub const TAG_MAP: u8 = 8;

/// Deepest nesting the decoder accepts (the top-level value is depth 0);
/// deeper input is refused rather than risking unbounded recursion.
pub const MAX_DEPTH: usize = 128;

/// Cap on the elements reserved up front for a sequence or map. A length
/// is only checked against the bytes left, and one decoded element can be
/// far larger than its one-byte minimum encoding, so a crafted length must
/// not turn into a huge allocation before the first element fails.
const MAX_RESERVE: usize = 4096;

/// Encodes `value` without any header.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.write_binary(&mut out);
    out
}

/// Decodes one header-less value that must span all of `bytes`.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, DeError> {
    let mut reader = Reader::new(bytes);
    let value = T::read_binary(&mut reader, 0)?;
    reader.finish()?;
    Ok(value)
}

/// Decodes one header-less [`Value`] tree that must span all of `bytes`.
pub fn decode_value_bytes(bytes: &[u8]) -> Result<Value, DeError> {
    let mut reader = Reader::new(bytes);
    let value = decode_value(&mut reader, 0)?;
    reader.finish()?;
    Ok(value)
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Writes a null.
#[inline]
pub fn write_null(out: &mut Vec<u8>) {
    out.push(TAG_NULL);
}

/// Writes a boolean.
#[inline]
pub fn write_bool(out: &mut Vec<u8>, value: bool) {
    out.push(if value { TAG_TRUE } else { TAG_FALSE });
}

/// Writes an unsigned integer.
#[inline]
pub fn write_u64(out: &mut Vec<u8>, value: u64) {
    write_word(out, TAG_U64, value.to_le_bytes());
}

/// Writes a signed integer.
#[inline]
pub fn write_i64(out: &mut Vec<u8>, value: i64) {
    write_word(out, TAG_I64, value.to_le_bytes());
}

/// Writes a float as its raw IEEE-754 bits.
#[inline]
pub fn write_f64(out: &mut Vec<u8>, value: f64) {
    write_word(out, TAG_F64, value.to_bits().to_le_bytes());
}

/// Writes a string.
#[inline]
pub fn write_str(out: &mut Vec<u8>, value: &str) {
    out.push(TAG_STR);
    write_key(out, value);
}

/// Opens a sequence of `len` elements; the caller writes them next.
#[inline]
pub fn write_seq_header(out: &mut Vec<u8>, len: usize) {
    write_word(out, TAG_SEQ, (len as u64).to_le_bytes());
}

/// Opens a map of `len` entries; the caller writes each as
/// [`write_key`] followed by the value.
#[inline]
pub fn write_map_header(out: &mut Vec<u8>, len: usize) {
    write_word(out, TAG_MAP, (len as u64).to_le_bytes());
}

/// Writes a tag and its 8-byte word with one capacity check.
#[inline]
fn write_word(out: &mut Vec<u8>, tag: u8, word: [u8; 8]) {
    let mut bytes = [tag; 9];
    bytes[1..].copy_from_slice(&word);
    out.extend_from_slice(&bytes);
}

/// Writes a map key (length and bytes, no tag).
#[inline]
pub fn write_key(out: &mut Vec<u8>, key: &str) {
    out.extend_from_slice(&(key.len() as u64).to_le_bytes());
    out.extend_from_slice(key.as_bytes());
}

/// Writes a slice as a sequence.
pub fn write_seq<T: Serialize>(out: &mut Vec<u8>, items: &[T]) {
    write_seq_header(out, items.len());
    for item in items {
        item.write_binary(out);
    }
}

/// Encodes a [`Value`] tree.
pub fn encode_value(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => write_null(out),
        Value::Bool(v) => write_bool(out, *v),
        Value::U64(v) => write_u64(out, *v),
        Value::I64(v) => write_i64(out, *v),
        Value::F64(v) => write_f64(out, *v),
        Value::Str(s) => write_str(out, s),
        Value::Seq(items) => {
            write_seq_header(out, items.len());
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Map(entries) => {
            write_map_header(out, entries.len());
            for (key, item) in entries {
                write_key(out, key);
                encode_value(item, out);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over encoded bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Fails unless every byte has been consumed.
    pub fn finish(self) -> Result<(), DeError> {
        let left = self.bytes.len() - self.pos;
        if left != 0 {
            return Err(DeError::new(format!("{left} trailing bytes after the payload")));
        }
        Ok(())
    }

    /// Consumes the next tag if it is `tag`. Fails if the value at `depth`
    /// nests too deep or no byte is left.
    #[inline(always)]
    pub fn accept(&mut self, depth: usize, tag: u8) -> Result<bool, DeError> {
        if depth > MAX_DEPTH {
            return Err(too_deep());
        }
        match self.bytes.get(self.pos) {
            Some(&next) if next == tag => {
                self.pos += 1;
                Ok(true)
            }
            Some(_) => Ok(false),
            None => Err(self.truncated(1)),
        }
    }

    /// Reads 8 little-endian bytes.
    #[inline(always)]
    pub fn take_u64(&mut self) -> Result<u64, DeError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Reads a sequence, map or string length, refusing any that exceeds
    /// the bytes left (every element needs at least one byte).
    #[inline]
    pub fn take_len(&mut self) -> Result<usize, DeError> {
        let raw = self.take_u64()?;
        let remaining = (self.bytes.len() - self.pos) as u64;
        if raw > remaining {
            return Err(DeError::new(format!(
                "length {raw} exceeds the {remaining} bytes left"
            )));
        }
        Ok(raw as usize)
    }

    /// Reads a length-prefixed UTF-8 string (a key, or a string after its
    /// tag), borrowed from the input.
    #[inline]
    pub fn take_str(&mut self) -> Result<&'a str, DeError> {
        let len = self.take_len()?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| DeError::new("string payload is not valid UTF-8"))
    }

    #[inline(always)]
    fn take(&mut self, count: usize) -> Result<&'a [u8], DeError> {
        let end = self
            .pos
            .checked_add(count)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| self.truncated(count))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    #[cold]
    #[inline(never)]
    fn truncated(&self, count: usize) -> DeError {
        DeError::new(format!(
            "truncated payload: wanted {count} bytes at offset {}, have {}",
            self.pos,
            self.bytes.len() - self.pos
        ))
    }
}

#[cold]
#[inline(never)]
fn too_deep() -> DeError {
    DeError::new(format!("payload nests deeper than {MAX_DEPTH} levels"))
}

/// Decodes one [`Value`] tree at nesting `depth`.
pub fn decode_value(reader: &mut Reader<'_>, depth: usize) -> Result<Value, DeError> {
    if depth > MAX_DEPTH {
        return Err(too_deep());
    }
    let tag = reader.take(1)?[0];
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_U64 => Ok(Value::U64(reader.take_u64()?)),
        TAG_I64 => Ok(Value::I64(reader.take_u64()? as i64)),
        TAG_F64 => Ok(Value::F64(f64::from_bits(reader.take_u64()?))),
        TAG_STR => Ok(Value::Str(reader.take_str()?.to_owned())),
        TAG_SEQ => {
            let len = reader.take_len()?;
            let mut items = Vec::with_capacity(len.min(MAX_RESERVE));
            for _ in 0..len {
                items.push(decode_value(reader, depth + 1)?);
            }
            Ok(Value::Seq(items))
        }
        TAG_MAP => {
            let len = reader.take_len()?;
            let mut entries = Vec::with_capacity(len.min(MAX_RESERVE));
            for _ in 0..len {
                let key = reader.take_str()?.to_owned();
                entries.push((key, decode_value(reader, depth + 1)?));
            }
            Ok(Value::Map(entries))
        }
        other => Err(DeError::new(format!("unknown value tag {other:#04x}"))),
    }
}

/// Steps over one value at nesting `depth`, refusing exactly what
/// [`decode_value`] refuses (bad tags, lengths past the end, non-UTF-8
/// strings or keys, nesting past [`MAX_DEPTH`]) but building nothing.
pub fn skip_value(reader: &mut Reader<'_>, depth: usize) -> Result<(), DeError> {
    if depth > MAX_DEPTH {
        return Err(too_deep());
    }
    match reader.take(1)?[0] {
        TAG_NULL | TAG_FALSE | TAG_TRUE => {}
        TAG_U64 | TAG_I64 | TAG_F64 => {
            reader.take(8)?;
        }
        TAG_STR => {
            reader.take_str()?;
        }
        TAG_SEQ => {
            for _ in 0..reader.take_len()? {
                skip_value(reader, depth + 1)?;
            }
        }
        TAG_MAP => {
            for _ in 0..reader.take_len()? {
                reader.take_str()?;
                skip_value(reader, depth + 1)?;
            }
        }
        other => return Err(DeError::new(format!("unknown value tag {other:#04x}"))),
    }
    Ok(())
}

/// Reads a sequence of `T` at `depth` (elements at `depth + 1`).
#[inline]
pub fn read_seq<T: Deserialize>(reader: &mut Reader<'_>, depth: usize) -> Result<Vec<T>, DeError> {
    if !reader.accept(depth, TAG_SEQ)? {
        return Err(DeError::expected("array", "Vec"));
    }
    let len = reader.take_len()?;
    let mut items = Vec::with_capacity(len.min(MAX_RESERVE));
    for _ in 0..len {
        items.push(T::read_binary(reader, depth + 1)?);
    }
    Ok(items)
}

/// Reads a map at `depth` entry by entry, with the lookup semantics of
/// [`crate::map_get`]: `field` is handed each key and reads the value (at
/// `depth + 1`) if it wants it, returning `true`. A declined entry — an
/// unknown key, or a repeat of a key already read, since the first one
/// wins — is still decoded, so it must be well-formed, and then dropped.
/// `context` names the type being read, for the error on a non-map.
pub fn read_map<'a>(
    reader: &mut Reader<'a>,
    depth: usize,
    context: &str,
    mut field: impl FnMut(&mut Reader<'a>, &'a str) -> Result<bool, DeError>,
) -> Result<(), DeError> {
    if !reader.accept(depth, TAG_MAP)? {
        return Err(DeError::expected("map", context));
    }
    let len = reader.take_len()?;
    for _ in 0..len {
        let key = reader.take_str()?;
        if !field(reader, key)? {
            skip_value(reader, depth + 1)?;
        }
    }
    Ok(())
}

/// The value of a required field read by [`read_map`], or the
/// missing-field error [`crate::map_get`] gives.
pub fn required<T>(slot: Option<T>, key: &str) -> Result<T, DeError> {
    slot.ok_or_else(|| DeError::new(format!("missing field `{key}`")))
}

/// Reads an enum at `depth` in the externally tagged form the derive
/// writes: a bare string for a unit variant (handed to `unit`), or a
/// single-entry map whose key names the variant (handed to `tagged`,
/// which reads the variant's content at `depth + 1`).
pub fn read_enum<'a, T>(
    reader: &mut Reader<'a>,
    depth: usize,
    name: &str,
    unit: impl FnOnce(&str) -> Result<T, DeError>,
    tagged: impl FnOnce(&mut Reader<'a>, &'a str) -> Result<T, DeError>,
) -> Result<T, DeError> {
    if reader.accept(depth, TAG_STR)? {
        return unit(reader.take_str()?);
    }
    if !reader.accept(depth, TAG_MAP)? {
        return Err(DeError::expected("string or single-key map", name));
    }
    if reader.take_len()? != 1 {
        return Err(DeError::expected("single-key map", name));
    }
    let key = reader.take_str()?;
    tagged(reader, key)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Where `skip_value` and `decode_value` leave `bytes`: both refuse,
    /// or both accept and stop at the same offset.
    fn assert_skip_matches_decode(bytes: &[u8], context: &str) {
        let mut skipped = Reader::new(bytes);
        let mut decoded = Reader::new(bytes);
        match (skip_value(&mut skipped, 0), decode_value(&mut decoded, 0)) {
            (Ok(()), Ok(_)) => assert_eq!(skipped.pos, decoded.pos, "{context}"),
            (Err(_), Err(_)) => {}
            (skip, decode) => panic!("{context}: skip {skip:?} but decode {:?}", decode.err()),
        }
    }

    #[test]
    fn skip_value_refuses_exactly_what_decode_value_refuses() {
        let value = Value::Map(vec![
            (
                "ké".to_string(),
                Value::Seq(vec![
                    Value::Str("é".to_string()),
                    Value::F64(1.5),
                    Value::Null,
                    Value::Bool(true),
                    Value::I64(-3),
                    Value::U64(7),
                ]),
            ),
            ("m".to_string(), Value::Map(Vec::new())),
        ]);
        let mut bytes = Vec::new();
        encode_value(&value, &mut bytes);
        for position in 0..bytes.len() {
            for mask in [0x01u8, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF] {
                let mut mutated = bytes.clone();
                mutated[position] ^= mask;
                assert_skip_matches_decode(&mutated, &format!("byte {position} ^ {mask:#04x}"));
            }
        }
        for cut in 0..=bytes.len() {
            assert_skip_matches_decode(&bytes[..cut], &format!("cut at {cut}"));
        }
        for levels in [MAX_DEPTH, MAX_DEPTH + 1] {
            let nested = (0..levels).fold(Value::Null, |inner, _| Value::Seq(vec![inner]));
            let mut deep = Vec::new();
            encode_value(&nested, &mut deep);
            assert_skip_matches_decode(&deep, &format!("{levels} levels"));
        }
    }

    #[test]
    fn truncation_reports_the_bytes_left_after_the_offset() {
        let mut bytes = Vec::new();
        encode_value(&Value::Seq(vec![Value::U64(7), Value::F64(1.5)]), &mut bytes);
        let cut = &bytes[..bytes.len() - 3];
        let err = decode_value_bytes(cut).unwrap_err();
        assert_eq!(
            err.to_string(),
            "truncated payload: wanted 8 bytes at offset 19, have 5"
        );
    }
}

//! Self-describing entity records (interpreted attribute storage format).
//!
//! A record stores only the attributes an entity instantiates:
//!
//! ```text
//! entity_id : varint
//! arity     : varint
//! attrs     : arity × ( attr_id: varint, tag: u8, payload )
//! ```
//!
//! Payloads: `Bool` = 1 byte, `Int`/`Float` = 8 bytes little-endian,
//! `Text` = varint length + UTF-8 bytes. Attributes are written in ascending
//! id order (entities keep them sorted), which decodes back into a valid
//! [`Entity`] without re-sorting, and lets a reader that wants only some
//! attributes merge against the record in one pass ([`RecordView`]).

use crate::{varint, StorageError};
use cind_model::{AttrId, Entity, EntityId, Value, ValueRef};

const TAG_BOOL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_TEXT: u8 = 3;
/// Payload bytes by tag; a text payload carries its own length.
const FIXED_LEN: [usize; 4] = [1, 8, 8, 0];

/// Serializes `entity` into a fresh byte vector ([`encode_record`] of its
/// id and attributes).
pub fn encode_entity(entity: &Entity) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + entity.arity() * 12);
    let attrs = entity.attrs().iter().map(|(attr, value)| (*attr, value.borrowed()));
    encode_record(entity.id(), attrs, &mut out);
    out
}

/// Appends the record of entity `id` holding `attrs` to `out` and returns
/// its [`Signature`] — the one record encoder: an [`Entity`] and cells still
/// lying in a request frame both come here borrowed, so they cannot encode
/// apart. `attrs` must come in strictly ascending id order, as an entity
/// keeps them; the encoder does not sort.
pub fn encode_record<'v>(
    id: EntityId,
    attrs: impl ExactSizeIterator<Item = (AttrId, ValueRef<'v>)>,
    out: &mut Vec<u8>,
) -> Signature {
    varint::encode(id.0, out);
    varint::encode(attrs.len() as u64, out);
    let mut signature = 0;
    for (attr, value) in attrs {
        signature |= signature_bit(attr);
        varint::encode(u64::from(attr.index()), out);
        match value {
            ValueRef::Bool(b) => {
                out.push(TAG_BOOL);
                out.push(u8::from(b));
            }
            ValueRef::Int(i) => {
                out.push(TAG_INT);
                out.extend_from_slice(&i.to_le_bytes());
            }
            ValueRef::Float(x) => {
                out.push(TAG_FLOAT);
                out.extend_from_slice(&x.to_le_bytes());
            }
            ValueRef::Text(s) => {
                out.push(TAG_TEXT);
                varint::encode(s.len() as u64, out);
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
    signature
}

/// An entity's attribute synopsis folded to one word: bit `attr id mod 128`
/// is set for every attribute the record instantiates. The paper's pruning
/// test `|e ∧ q| = 0`, one level below the partition: a record whose
/// signature shares no bit with a query's mask instantiates none of the
/// query's attributes. Exact while the universe has at most 128 attributes;
/// beyond that `id` aliases with `id + 128k`, which can make a record a
/// candidate it need not have been and never the reverse.
pub type Signature = u128;

/// The signature bit of one attribute — the single definition of the fold,
/// shared by the records' signatures and the queries' masks.
pub fn signature_bit(attr: AttrId) -> Signature {
    1 << (attr.0 % Signature::BITS)
}

/// The signature of one serialized record. Bytes that do not walk as a
/// record get the all-ones signature: no mask skips them, so the scan that
/// meets them still fails on them.
pub(crate) fn signature(record: &[u8]) -> Signature {
    let walk = || {
        let mut view = RecordView::new(record)?;
        let mut signature = 0;
        while let Some((attr, _)) = view.next_attr()? {
            signature |= signature_bit(attr);
        }
        view.finish()?;
        Ok::<_, StorageError>(signature)
    };
    walk().unwrap_or(Signature::MAX)
}

/// A borrowed, zero-allocation cursor over one serialized record.
///
/// [`RecordView::new`] reads the header; each [`RecordView::next_attr`]
/// step reads one attribute id and tag and *delimits* the payload by its
/// tag and length without building a [`Value`]. A caller that does not want
/// an attribute simply does not call [`RawValue::decode`] on it, and may
/// stop stepping as soon as it has what it came for. A caller holding the
/// record's stored [`Signature`] knows that far sooner: an attribute whose
/// [`signature_bit`] the signature lacks is not in the record, so a reader
/// after some attributes stops at the last one the signature admits. Ids
/// 128 apart share a bit, so an admitted attribute may still be absent and
/// the walk then runs on to where it would have been.
///
/// Every step checks what the walk itself depends on: well-formed varints,
/// attribute ids that fit `u32` and strictly ascend, a known tag, a payload
/// that lies inside the record. What a caller skips is *not* checked: the
/// UTF-8 of a text payload it never materialises, everything behind the
/// point where it stops, and trailing bytes unless it asks with
/// [`RecordView::finish`].
pub struct RecordView<'a> {
    id: EntityId,
    arity: usize,
    remaining: usize,
    /// Smallest id the next attribute may carry (ids strictly ascend).
    floor: u64,
    rest: &'a [u8],
}

/// One attribute's value as it lies in the record: a validated tag and the
/// payload bytes, not yet decoded.
#[derive(Clone, Copy)]
pub struct RawValue<'a> {
    tag: u8,
    payload: &'a [u8],
}

fn corrupt(what: &'static str) -> StorageError {
    StorageError::CorruptRecord(what)
}

#[inline]
fn take_varint(rest: &mut &[u8]) -> Result<u64, StorageError> {
    let (v, n) = varint::decode(rest).ok_or(corrupt("varint"))?;
    *rest = &rest[n..];
    Ok(v)
}

#[inline]
fn take<'a>(rest: &mut &'a [u8], len: usize, what: &'static str) -> Result<&'a [u8], StorageError> {
    if len > rest.len() {
        return Err(corrupt(what));
    }
    let (head, tail) = rest.split_at(len);
    *rest = tail;
    Ok(head)
}

#[inline]
fn take_array<const N: usize>(
    rest: &mut &[u8],
    what: &'static str,
) -> Result<[u8; N], StorageError> {
    take(rest, N, what)?.try_into().map_err(|_| corrupt(what))
}

/// Reads one attribute off the front of `rest`, whose id must not be below
/// `floor`: `(id, value, bytes after it)`. Cursor state goes in and out by
/// value so a caller's loop can keep it in registers.
#[inline]
fn step(rest: &[u8], floor: u64) -> Result<(AttrId, RawValue<'_>, &[u8]), StorageError> {
    // The common shape, decided without a data-dependent branch on the tag
    // (tags are as good as random to a branch predictor): a one-byte
    // attribute id, a known tag, and for text a one-byte length.
    if let [attr, tag, len, ..] = *rest {
        let text = tag == TAG_TEXT;
        let start = 2 + usize::from(text);
        let len = FIXED_LEN[usize::from(tag & 3)] + usize::from(text) * usize::from(len);
        let plain = (attr < 0x80) & (tag <= TAG_TEXT) & (len < 0x80);
        if plain & (u64::from(attr) >= floor) {
            if let Some((head, after)) = rest.split_at_checked(start + len) {
                let payload = &head[start..];
                return Ok((AttrId(u32::from(attr)), RawValue { tag, payload }, after));
            }
        }
    }
    step_general(rest, floor)
}

/// [`step`] for a record of any shape.
fn step_general(
    mut rest: &[u8],
    floor: u64,
) -> Result<(AttrId, RawValue<'_>, &[u8]), StorageError> {
    let attr = take_varint(&mut rest)?;
    let id = u32::try_from(attr).map_err(|_| corrupt("attr id overflow"))?;
    if attr < floor {
        return Err(corrupt("attribute order"));
    }
    let tag = take(&mut rest, 1, "missing tag")?[0];
    let payload = match tag {
        TAG_BOOL | TAG_INT | TAG_FLOAT => {
            take(&mut rest, FIXED_LEN[usize::from(tag)], "fixed payload")?
        }
        TAG_TEXT => {
            let len = take_varint(&mut rest)?;
            let len = usize::try_from(len).map_err(|_| corrupt("text payload"))?;
            take(&mut rest, len, "text payload")?
        }
        _ => return Err(corrupt("unknown tag")),
    };
    Ok((AttrId(id), RawValue { tag, payload }, rest))
}

impl<'a> RecordView<'a> {
    /// Opens a cursor on `buf`, reading the `(entity id, arity)` header.
    ///
    /// # Errors
    /// [`StorageError::CorruptRecord`] if the header is truncated.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Result<Self, StorageError> {
        let mut rest = buf;
        let id = EntityId(take_varint(&mut rest)?);
        let arity = usize::try_from(take_varint(&mut rest)?).map_err(|_| corrupt("arity"))?;
        Ok(Self { id, arity, remaining: arity, floor: 0, rest })
    }

    /// The entity id.
    pub fn id(&self) -> EntityId {
        self.id
    }

    /// Number of attributes the header announces.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Steps to the next attribute; `None` once all `arity` were read.
    ///
    /// # Errors
    /// [`StorageError::CorruptRecord`] on truncation, an attribute id that
    /// overflows or does not ascend, or an unknown tag.
    #[inline]
    pub fn next_attr(&mut self) -> Result<Option<(AttrId, RawValue<'a>)>, StorageError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let (attr, raw, rest) = step(self.rest, self.floor)?;
        self.remaining -= 1;
        self.floor = u64::from(attr.0) + 1;
        self.rest = rest;
        Ok(Some((attr, raw)))
    }

    /// Ends a full walk: every attribute was read and nothing follows.
    ///
    /// # Errors
    /// [`StorageError::CorruptRecord`] if attributes or bytes are left.
    pub fn finish(self) -> Result<(), StorageError> {
        if self.remaining != 0 || !self.rest.is_empty() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(())
    }
}

impl<'a> RawValue<'a> {
    /// Reads the value in place — the only place a text payload's UTF-8 is
    /// validated; the text stays where it lies in the record.
    ///
    /// # Errors
    /// [`StorageError::CorruptRecord`] on invalid UTF-8.
    #[inline]
    pub fn decode(&self) -> Result<ValueRef<'a>, StorageError> {
        let fixed = |what| <[u8; 8]>::try_from(self.payload).map_err(|_| corrupt(what));
        Ok(match self.tag {
            TAG_BOOL => ValueRef::Bool(self.payload != [0]),
            TAG_INT => ValueRef::Int(i64::from_le_bytes(fixed("int payload")?)),
            TAG_FLOAT => ValueRef::Float(f64::from_le_bytes(fixed("float payload")?)),
            _ => ValueRef::Text(
                std::str::from_utf8(self.payload).map_err(|_| corrupt("text utf8"))?,
            ),
        })
    }

    /// Materialises the value ([`RawValue::decode`], text copied).
    ///
    /// # Errors
    /// [`StorageError::CorruptRecord`] on invalid UTF-8.
    pub fn to_value(&self) -> Result<Value, StorageError> {
        self.decode().map(ValueRef::to_value)
    }
}

/// Deserializes an entity from `buf`.
///
/// # Errors
/// Returns [`StorageError::CorruptRecord`] on truncation, an unknown value
/// tag, invalid UTF-8, attribute ids that do not strictly ascend, or
/// trailing garbage.
pub fn decode_entity(buf: &[u8]) -> Result<Entity, StorageError> {
    let mut rest = buf;
    let id = take_varint(&mut rest)?;
    let arity = usize::try_from(take_varint(&mut rest)?).map_err(|_| corrupt("arity"))?;
    // An attribute occupies at least three bytes (id, tag, payload), which
    // bounds the allocation a corrupt arity can ask for.
    let mut attrs = Vec::with_capacity(arity.min(rest.len() / 3));
    let mut floor = 0;
    for _ in 0..arity {
        let attr = take_varint(&mut rest)?;
        if attr < floor {
            return Err(corrupt("attribute order"));
        }
        floor = attr.saturating_add(1);
        let attr = AttrId(u32::try_from(attr).map_err(|_| corrupt("attr id overflow"))?);
        let tag = take(&mut rest, 1, "missing tag")?[0];
        // Every value is materialised, so the tag is branched on once here;
        // `RecordView`'s branch-free step pays off only for skipped values.
        let value = match tag {
            TAG_BOOL => Value::Bool(take(&mut rest, 1, "bool payload")?[0] != 0),
            TAG_INT => Value::Int(i64::from_le_bytes(take_array(&mut rest, "int payload")?)),
            TAG_FLOAT => Value::Float(f64::from_le_bytes(take_array(&mut rest, "float payload")?)),
            TAG_TEXT => {
                let len = take_varint(&mut rest)?;
                let len = usize::try_from(len).map_err(|_| corrupt("text payload"))?;
                let bytes = take(&mut rest, len, "text payload")?;
                Value::Text(
                    std::str::from_utf8(bytes)
                        .map_err(|_| corrupt("text utf8"))?
                        .to_owned(),
                )
            }
            _ => return Err(corrupt("unknown tag")),
        };
        attrs.push((attr, value));
    }
    if !rest.is_empty() {
        return Err(corrupt("trailing bytes"));
    }
    Entity::from_sorted(EntityId(id), attrs).map_err(|_| corrupt("attribute order"))
}

/// Decodes only the entity id from the front of a record — cheap peeking for
/// locator rebuilds and scans that filter by id.
pub fn decode_entity_id(buf: &[u8]) -> Result<EntityId, StorageError> {
    varint::decode(buf)
        .map(|(v, _)| EntityId(v))
        .ok_or(StorageError::CorruptRecord("varint"))
}


#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Entity {
        Entity::new(
            EntityId(300),
            [
                (AttrId(0), Value::Text("Canon PowerShot S120".into())),
                (AttrId(3), Value::Float(12.1)),
                (AttrId(7), Value::Int(198)),
                (AttrId(90), Value::Bool(true)),
                (AttrId(128), Value::Text(String::new())),
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip() {
        let e = sample();
        let bytes = encode_entity(&e);
        let back = decode_entity(&bytes).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn the_encoder_signature_is_the_walked_one() {
        let e = sample();
        let mut bytes = Vec::new();
        let attrs = e.attrs().iter().map(|(a, v)| (*a, v.borrowed()));
        let signature = encode_record(e.id(), attrs, &mut bytes);
        assert_eq!(bytes, encode_entity(&e));
        assert_eq!(signature, super::signature(&bytes));
    }

    #[test]
    fn roundtrip_empty_entity() {
        let e = Entity::empty(EntityId(0));
        let bytes = encode_entity(&e);
        assert_eq!(bytes, vec![0, 0]);
        assert_eq!(decode_entity(&bytes).unwrap(), e);
    }

    #[test]
    fn peek_entity_id() {
        let bytes = encode_entity(&sample());
        assert_eq!(decode_entity_id(&bytes).unwrap(), EntityId(300));
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode_entity(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode_entity(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut bytes = encode_entity(&sample());
        bytes.push(0);
        assert!(matches!(
            decode_entity(&bytes),
            Err(StorageError::CorruptRecord("trailing bytes"))
        ));
    }

    #[test]
    fn unknown_tag_is_detected() {
        // entity id 1, arity 1, attr 0, bogus tag 9
        let bytes = vec![1, 1, 0, 9];
        assert!(matches!(
            decode_entity(&bytes),
            Err(StorageError::CorruptRecord("unknown tag"))
        ));
    }

    #[test]
    fn non_ascending_attributes_are_detected() {
        // entity id 1, arity 2, bool attrs 5 then 5 / 5 then 2
        for second in [5u8, 2] {
            let bytes = vec![1, 2, 5, TAG_BOOL, 1, second, TAG_BOOL, 0];
            assert!(matches!(
                decode_entity(&bytes),
                Err(StorageError::CorruptRecord("attribute order"))
            ));
        }
    }

    #[test]
    fn huge_arity_and_length_fail_without_allocating_or_overflowing() {
        let mut bytes = vec![1];
        varint::encode(u64::MAX, &mut bytes);
        assert!(decode_entity(&bytes).is_err());
        // entity id 1, arity 1, attr 0, text of length u64::MAX
        let mut bytes = vec![1, 1, 0, TAG_TEXT];
        varint::encode(u64::MAX, &mut bytes);
        assert!(matches!(
            decode_entity(&bytes),
            Err(StorageError::CorruptRecord("text payload"))
        ));
    }

    #[test]
    fn view_walks_without_materialising() {
        let e = sample();
        let bytes = encode_entity(&e);
        let mut view = RecordView::new(&bytes).unwrap();
        assert_eq!((view.id(), view.arity()), (e.id(), e.arity()));
        let mut seen = Vec::new();
        while let Some((attr, raw)) = view.next_attr().unwrap() {
            // Materialise every other attribute only.
            let value = (seen.len() % 2 == 0).then(|| raw.to_value().unwrap());
            seen.push((attr, value));
        }
        view.finish().unwrap();
        for ((attr, value), (want_attr, want)) in seen.iter().zip(e.attrs()) {
            assert_eq!(attr, want_attr);
            assert!(value.as_ref().is_none_or(|v| v == want));
        }
        assert_eq!(seen.len(), e.arity());
    }

    #[test]
    fn view_skips_text_it_never_validates() {
        // entity id 1, arity 2: attr 0 = invalid UTF-8 text, attr 1 = true
        let bytes = vec![1, 2, 0, TAG_TEXT, 1, 0xff, 1, TAG_BOOL, 1];
        let mut view = RecordView::new(&bytes).unwrap();
        let (_, bad) = view.next_attr().unwrap().unwrap();
        assert!(bad.to_value().is_err());
        let (attr, good) = view.next_attr().unwrap().unwrap();
        assert_eq!((attr, good.to_value().unwrap()), (AttrId(1), Value::Bool(true)));
        assert!(view.next_attr().unwrap().is_none());
        view.finish().unwrap();
    }

    #[test]
    fn invalid_utf8_is_detected() {
        // entity id 1, arity 1, attr 0, text tag, len 1, invalid byte
        let bytes = vec![1, 1, 0, TAG_TEXT, 1, 0xff];
        assert!(matches!(
            decode_entity(&bytes),
            Err(StorageError::CorruptRecord("text utf8"))
        ));
    }
}

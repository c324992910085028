//! A query compiled for the scan kernel.

use cind_model::{AttrId, Value};
use cind_storage::record::{RawValue, RecordView};
use cind_storage::{signature_bit, Signature, StorageError};

use crate::Query;

/// A materialised result row: one cell per output column, `None` for NULL.
pub type Row = Vec<Option<Value>>;

/// Where the rows of a scan go. The kernel hands each matching record's
/// output row over as cells still lying in the record's bytes; what becomes
/// of them — nothing, owned [`Value`]s, another encoding — is the sink's
/// business, and the only work done per row.
pub trait RowSink: Default + Send {
    /// Whether the sink reads the cells at all. A sink that only counts
    /// rows spares the kernel from gathering them, and what its `row` is
    /// then handed is not a row.
    const READS_CELLS: bool = true;

    /// One matching record: `cells[i]` is output column `i`, `None` for
    /// NULL. The borrow ends with the call.
    ///
    /// # Errors
    /// [`StorageError::CorruptRecord`] from decoding a cell.
    fn row(&mut self, cells: &[Option<RawValue<'_>>]) -> Result<(), StorageError>;
}

/// The sink of measurement runs: rows are counted by the kernel, never
/// looked at.
#[derive(Default)]
pub(crate) struct CountOnly;

impl RowSink for CountOnly {
    const READS_CELLS: bool = false;

    fn row(&mut self, _: &[Option<RawValue<'_>>]) -> Result<(), StorageError> {
        Ok(())
    }
}

/// The typed sink: each row materialised as owned values.
impl RowSink for Vec<Row> {
    fn row(&mut self, cells: &[Option<RawValue<'_>>]) -> Result<(), StorageError> {
        let row: Result<Row, _> =
            cells.iter().map(|cell| cell.map(|raw| raw.to_value()).transpose()).collect();
        self.push(row?);
        Ok(())
    }
}

/// Output widths up to this gather a row's cells on the stack; a wider
/// projection allocates its scratch row per matching record.
const INLINE_WIDTH: usize = 8;

/// The `(attribute → output column)` map of one query, sorted by attribute
/// id so a record — whose attributes are stored ascending — is matched and
/// projected in a single merge pass over its bytes.
///
/// A repeated attribute fills each of its columns; an output column without
/// an attribute (one the table's catalog does not know) stays NULL in every
/// row.
///
/// The projection also carries, per sorted column, the [`Signature`] bits
/// of that column's attribute and all after it. The first is the query's
/// mask, by which the page walk picks the records worth handing to
/// [`Projection::match_record`]; the rest bound how far into a record the
/// match walks. Both only ever narrow what is read; `match_record` remains
/// the authority on what matches.
#[derive(Clone, Debug)]
pub struct Projection {
    columns: Vec<(AttrId, usize)>,
    /// `suffix_bits[i]`: the OR of the signature bits of `columns[i..]`.
    suffix_bits: Vec<Signature>,
    width: usize,
}

impl Projection {
    /// Compiles the output columns in order: column `i` carries attribute
    /// `columns[i]`, or NULL in every row where that is `None`.
    pub fn new(columns: impl IntoIterator<Item = Option<AttrId>>) -> Self {
        let mut width = 0;
        let mut sorted = Vec::new();
        for (column, attr) in columns.into_iter().enumerate() {
            width += 1;
            if let Some(attr) = attr {
                sorted.push((attr, column));
            }
        }
        sorted.sort_unstable();
        let mut suffix_bits = vec![0; sorted.len()];
        let mut bits = 0;
        for (i, &(attr, _)) in sorted.iter().enumerate().rev() {
            bits |= signature_bit(attr);
            suffix_bits[i] = bits;
        }
        Self { columns: sorted, suffix_bits, width }
    }

    /// The signature mask of the requested attributes: a record whose
    /// signature shares no bit with it instantiates none of them.
    pub(crate) fn mask(&self) -> Signature {
        self.suffix_bits.first().copied().unwrap_or(0)
    }

    /// The projection of `query`: its attributes in request order.
    pub fn of(query: &Query) -> Self {
        Self::new(query.attrs().iter().copied().map(Some))
    }

    /// Matches one serialized record against the projection, straight off
    /// its bytes, and hands a matching record's output row to `sink`.
    /// Returns the number of requested cells the record instantiates; `0`
    /// means it matched nothing and the sink was not called.
    ///
    /// `signature` is the record's stored [`Signature`]. A requested
    /// attribute whose bit it lacks is not in the record, so the walk stops
    /// at the last requested attribute the signature admits — the
    /// first record attribute at or beyond it ends the walk, and the tail
    /// of the record is neither read nor checked. Ids 128 apart share a
    /// bit: an aliased attribute is admitted and keeps the walk going, so
    /// the stop is exact only below 128 attributes and never early.
    /// [`Signature::MAX`] admits every requested attribute.
    ///
    /// # Errors
    /// [`StorageError::CorruptRecord`] from the walked part of the record,
    /// or from the sink.
    pub(crate) fn match_record<S: RowSink>(
        &self,
        record: &[u8],
        signature: Signature,
        sink: &mut S,
    ) -> Result<u32, StorageError> {
        let mut view = RecordView::new(record)?;
        // `suffix_bits` only loses bits left to right, so the columns whose
        // suffix the signature meets are a prefix: the requested attributes
        // up to the last one the signature admits. Past them nothing is
        // wanted.
        let admitted = self.suffix_bits.iter().take_while(|&&bits| bits & signature != 0).count();
        let wanted = &self.columns[..admitted];
        let mut next = 0;
        let mut cells = 0u32;
        // The row in output-column order, gathered while the record is
        // walked in attribute order.
        let mut inline = [None; INLINE_WIDTH];
        let mut spill = Vec::new();
        while next < wanted.len() {
            let Some((attr, raw)) = view.next_attr()? else {
                break;
            };
            while next < wanted.len() && wanted[next].0 < attr {
                next += 1;
            }
            while next < wanted.len() && wanted[next].0 == attr {
                cells += 1;
                if S::READS_CELLS {
                    let row = if self.width <= INLINE_WIDTH {
                        &mut inline[..]
                    } else {
                        if spill.is_empty() {
                            spill.resize(self.width, None);
                        }
                        &mut spill[..]
                    };
                    if let Some(cell) = row.get_mut(wanted[next].1) {
                        *cell = Some(raw);
                    }
                }
                next += 1;
            }
        }
        if cells > 0 {
            let row = if self.width <= INLINE_WIDTH { &inline[..] } else { &spill[..] };
            sink.row(row.get(..self.width).unwrap_or_default())?;
        }
        Ok(cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cind_model::{Entity, EntityId};
    use cind_storage::encode_entity;

    /// A record's bytes and the signature a page stores beside them.
    fn record(attrs: &[(u32, i64)]) -> (Vec<u8>, Signature) {
        let bytes = encode_entity(
            &Entity::new(
                EntityId(1),
                attrs.iter().map(|&(a, v)| (AttrId(a), Value::Int(v))),
            )
            .unwrap(),
        );
        let signature = attrs.iter().fold(0, |sig, &(a, _)| sig | signature_bit(AttrId(a)));
        (bytes, signature)
    }

    /// `(cells, rows handed to a typed sink)` for one record.
    fn matched(p: &Projection, (bytes, signature): &(Vec<u8>, Signature)) -> (u32, Vec<Row>) {
        let mut rows = Vec::new();
        let cells = p.match_record(bytes, *signature, &mut rows).unwrap();
        (cells, rows)
    }

    #[test]
    fn merge_projects_in_request_order_with_nulls_and_repeats() {
        let q = Query::from_attrs(16, [AttrId(9), AttrId(2), AttrId(9), AttrId(4)]);
        let p = Projection::of(&q);
        let (cells, rows) = matched(&p, &record(&[(1, 10), (2, 20), (9, 90)]));
        assert_eq!(cells, 3);
        assert_eq!(
            rows,
            vec![vec![Some(Value::Int(90)), Some(Value::Int(20)), Some(Value::Int(90)), None]]
        );
        let (bytes, signature) = record(&[(9, 90)]);
        assert_eq!(p.match_record(&bytes, signature, &mut CountOnly).unwrap(), 2);
        assert_eq!(matched(&p, &record(&[(1, 10), (3, 30), (12, 1)])), (0, vec![]));
        assert_eq!(matched(&p, &record(&[])), (0, vec![]));
    }

    #[test]
    fn unknown_columns_stay_null_at_full_width() {
        let p = Projection::new([None, Some(AttrId(5)), None]);
        let (_, rows) = matched(&p, &record(&[(5, 50)]));
        assert_eq!(rows, vec![vec![None, Some(Value::Int(50)), None]]);
    }

    #[test]
    fn rows_wider_than_the_inline_scratch_project_the_same() {
        let width = INLINE_WIDTH + 3;
        let p = Projection::new((0..width as u32).rev().map(|a| Some(AttrId(a))));
        let (cells, rows) = matched(&p, &record(&[(0, 7), (width as u32 - 1, 9)]));
        let mut want = vec![None; width];
        want[0] = Some(Value::Int(9));
        want[width - 1] = Some(Value::Int(7));
        assert_eq!((cells, rows), (2, vec![want]));
    }

    #[test]
    fn walk_stops_past_the_largest_requested_attribute() {
        let p = Projection::new([Some(AttrId(2))]);
        let (mut bytes, _) = record(&[(2, 20), (7, 70)]);
        // Garbage where attribute 7's tag was: never reached, even by a
        // walk that knows nothing of the record's signature.
        let tag_of_7 = bytes.len() - 9;
        bytes[tag_of_7] = 0xee;
        assert_eq!(matched(&p, &(bytes, Signature::MAX)).0, 1);
        // The same garbage in front of the requested attribute is reached.
        let (mut bytes, signature) = record(&[(1, 10), (2, 20)]);
        bytes[3] = 0xee;
        assert!(p.match_record(&bytes, signature, &mut Vec::<Row>::new()).is_err());
    }

    /// `record(attrs)` with garbage where its last attribute's tag was.
    fn damaged_at_the_end(attrs: &[(u32, i64)]) -> (Vec<u8>, Signature) {
        let (mut bytes, signature) = record(attrs);
        let tag_of_last = bytes.len() - 9;
        bytes[tag_of_last] = 0xee;
        (bytes, signature)
    }

    #[test]
    fn walk_stops_at_the_last_requested_attribute_the_signature_admits() {
        // Attribute 5 is requested, but the record's signature lacks its
        // bit: the walk ends after attribute 2 and never meets the garbage.
        let p = Projection::new([Some(AttrId(5)), Some(AttrId(2))]);
        let damaged = damaged_at_the_end(&[(2, 20), (7, 70)]);
        assert_eq!(matched(&p, &damaged), (1, vec![vec![None, Some(Value::Int(20))]]));
        // Without the signature the walk looks for attribute 5 and fails.
        let blind = p.match_record(&damaged.0, Signature::MAX, &mut CountOnly);
        assert!(matches!(blind, Err(StorageError::CorruptRecord(_))));

        // 131 folds onto 3's bit, so a record with attribute 3 admits it:
        // the walk goes on into the garbage where 200 was.
        let aliased = Projection::new([Some(AttrId(3)), Some(AttrId(131))]);
        let damaged = damaged_at_the_end(&[(3, 30), (200, 1)]);
        let walked = aliased.match_record(&damaged.0, damaged.1, &mut Vec::<Row>::new());
        assert!(matches!(walked, Err(StorageError::CorruptRecord(_))));
        // 130 folds onto bit 2, which the record lacks: it stops after 3.
        let exact = Projection::new([Some(AttrId(3)), Some(AttrId(130))]);
        assert_eq!(matched(&exact, &damaged).0, 1);
    }
}

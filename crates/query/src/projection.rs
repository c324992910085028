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
/// The projection also carries the query's [`Signature`] mask — the bits of
/// its attributes — by which the page walk picks the records worth handing
/// to [`Projection::match_record`]. The mask only ever narrows what is
/// read; `match_record` remains the authority on what matches.
#[derive(Clone, Debug)]
pub struct Projection {
    columns: Vec<(AttrId, usize)>,
    width: usize,
    mask: Signature,
}

impl Projection {
    /// Compiles the output columns in order: column `i` carries attribute
    /// `columns[i]`, or NULL in every row where that is `None`.
    pub fn new(columns: impl IntoIterator<Item = Option<AttrId>>) -> Self {
        let mut width = 0;
        let mut sorted = Vec::new();
        let mut mask = 0;
        for (column, attr) in columns.into_iter().enumerate() {
            width += 1;
            if let Some(attr) = attr {
                sorted.push((attr, column));
                mask |= signature_bit(attr);
            }
        }
        sorted.sort_unstable();
        Self { columns: sorted, width, mask }
    }

    /// The signature mask of the requested attributes: a record whose
    /// signature shares no bit with it instantiates none of them.
    pub(crate) fn mask(&self) -> Signature {
        self.mask
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
    /// The walk stops at the first record attribute beyond the largest
    /// requested one, so the tail of the record is neither read nor
    /// checked.
    ///
    /// # Errors
    /// [`StorageError::CorruptRecord`] from the walked part of the record,
    /// or from the sink.
    pub(crate) fn match_record<S: RowSink>(
        &self,
        record: &[u8],
        sink: &mut S,
    ) -> Result<u32, StorageError> {
        let mut view = RecordView::new(record)?;
        let wanted = &self.columns[..];
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

    fn record(attrs: &[(u32, i64)]) -> Vec<u8> {
        encode_entity(
            &Entity::new(
                EntityId(1),
                attrs.iter().map(|&(a, v)| (AttrId(a), Value::Int(v))),
            )
            .unwrap(),
        )
    }

    /// `(cells, rows handed to a typed sink)` for one record.
    fn matched(p: &Projection, record: &[u8]) -> (u32, Vec<Row>) {
        let mut rows = Vec::new();
        let cells = p.match_record(record, &mut rows).unwrap();
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
        assert_eq!(p.match_record(&record(&[(9, 90)]), &mut CountOnly).unwrap(), 2);
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
        let mut bytes = record(&[(2, 20), (7, 70)]);
        // Garbage where attribute 7's tag was: never reached.
        let tag_of_7 = bytes.len() - 9;
        bytes[tag_of_7] = 0xee;
        assert_eq!(matched(&p, &bytes).0, 1);
        // The same garbage in front of the requested attribute is reached.
        let mut bytes = record(&[(1, 10), (2, 20)]);
        bytes[3] = 0xee;
        assert!(p.match_record(&bytes, &mut Vec::<Row>::new()).is_err());
    }
}

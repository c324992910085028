//! A query compiled for the scan kernel.

use cind_model::{AttrId, Value};
use cind_storage::record::RecordView;
use cind_storage::StorageError;

use crate::Query;

/// A materialised result row: one cell per output column, `None` for NULL.
pub type Row = Vec<Option<Value>>;

/// The `(attribute → output column)` map of one query, sorted by attribute
/// id so a record — whose attributes are stored ascending — is matched and
/// projected in a single merge pass over its bytes.
///
/// A repeated attribute fills each of its columns; an output column without
/// an attribute (one the table's catalog does not know) stays NULL in every
/// row.
#[derive(Clone, Debug)]
pub struct Projection {
    columns: Vec<(AttrId, usize)>,
    width: usize,
}

/// What one record contributes to a query.
pub(crate) struct Match {
    /// Requested cells the record instantiates (never 0).
    pub cells: u32,
    /// The projected row; `None` when the scan only counts.
    pub row: Option<Row>,
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
        Self { columns: sorted, width }
    }

    /// The projection of `query`: its attributes in request order.
    pub fn of(query: &Query) -> Self {
        Self::new(query.attrs().iter().copied().map(Some))
    }

    /// Matches one serialized record against the projection, straight off
    /// its bytes: `None` if it instantiates no requested attribute,
    /// otherwise the cell count and — when `collect` — the output row,
    /// holding the only values this scan ever materialises.
    ///
    /// The walk stops at the first record attribute beyond the largest
    /// requested one, so the tail of the record is neither read nor
    /// checked.
    ///
    /// # Errors
    /// [`StorageError::CorruptRecord`] from the walked part of the record.
    pub(crate) fn match_record(
        &self,
        record: &[u8],
        collect: bool,
    ) -> Result<Option<Match>, StorageError> {
        let mut view = RecordView::new(record)?;
        let wanted = &self.columns[..];
        let mut next = 0;
        let mut cells = 0u32;
        let mut row: Option<Row> = None;
        while next < wanted.len() {
            let Some((attr, raw)) = view.next_attr()? else {
                break;
            };
            while next < wanted.len() && wanted[next].0 < attr {
                next += 1;
            }
            while next < wanted.len() && wanted[next].0 == attr {
                cells += 1;
                if collect {
                    row.get_or_insert_with(|| vec![None; self.width])[wanted[next].1] =
                        Some(raw.to_value()?);
                }
                next += 1;
            }
        }
        Ok((cells > 0).then_some(Match { cells, row }))
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

    #[test]
    fn merge_projects_in_request_order_with_nulls_and_repeats() {
        let q = Query::from_attrs(16, [AttrId(9), AttrId(2), AttrId(9), AttrId(4)]);
        let p = Projection::of(&q);
        let m = p.match_record(&record(&[(1, 10), (2, 20), (9, 90)]), true).unwrap().unwrap();
        assert_eq!(m.cells, 3);
        assert_eq!(
            m.row.unwrap(),
            vec![Some(Value::Int(90)), Some(Value::Int(20)), Some(Value::Int(90)), None]
        );
        let counted = p.match_record(&record(&[(9, 90)]), false).unwrap().unwrap();
        assert_eq!((counted.cells, counted.row), (2, None));
        assert!(p.match_record(&record(&[(1, 10), (3, 30), (12, 1)]), true).unwrap().is_none());
        assert!(p.match_record(&record(&[]), true).unwrap().is_none());
    }

    #[test]
    fn unknown_columns_stay_null_at_full_width() {
        let p = Projection::new([None, Some(AttrId(5)), None]);
        let m = p.match_record(&record(&[(5, 50)]), true).unwrap().unwrap();
        assert_eq!(m.row.unwrap(), vec![None, Some(Value::Int(50)), None]);
    }

    #[test]
    fn walk_stops_past_the_largest_requested_attribute() {
        let p = Projection::new([Some(AttrId(2))]);
        let mut bytes = record(&[(2, 20), (7, 70)]);
        // Garbage where attribute 7's tag was: never reached.
        let tag_of_7 = bytes.len() - 9;
        bytes[tag_of_7] = 0xee;
        assert_eq!(p.match_record(&bytes, true).unwrap().unwrap().cells, 1);
        // The same garbage in front of the requested attribute is reached.
        let mut bytes = record(&[(1, 10), (2, 20)]);
        bytes[3] = 0xee;
        assert!(p.match_record(&bytes, true).is_err());
    }
}

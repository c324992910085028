//! Minimal CSV reader for irregular entities.
//!
//! Dialect: RFC-4180-style — comma separator, `"`-quoted fields with `""`
//! escapes, LF or CRLF line ends. The header row names the attributes; an
//! optional leading `id` column carries the entity id (otherwise ids are
//! assigned by row number). **Empty cells mean "attribute absent"**, which
//! is what makes CSV a natural interchange format for sparse universal
//! tables.
//!
//! Values are typed by inference per cell: `true`/`false` → Bool, integer
//! literal → Int, float literal → Float, everything else → Text.

use cind_model::{AttrId, AttributeCatalog, Entity, EntityId, Value};

/// CSV parsing errors, with 1-based line numbers.
#[derive(Debug, PartialEq, Eq)]
pub enum CsvError {
    /// A quoted field was never closed.
    UnterminatedQuote {
        /// Line where the field started.
        line: usize,
    },
    /// A row has more cells than the header.
    TooManyCells {
        /// Offending line.
        line: usize,
    },
    /// An `id` cell did not parse as an unsigned integer.
    BadId {
        /// Offending line.
        line: usize,
    },
    /// Two rows share an id.
    DuplicateId {
        /// Offending line.
        line: usize,
        /// The repeated id.
        id: u64,
    },
    /// Two header columns name the same attribute (after trimming).
    DuplicateColumn {
        /// The repeated name.
        name: String,
    },
    /// The file has no header row.
    Empty,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::UnterminatedQuote { line } => {
                write!(f, "line {line}: unterminated quoted field")
            }
            CsvError::TooManyCells { line } => {
                write!(f, "line {line}: more cells than header columns")
            }
            CsvError::BadId { line } => write!(f, "line {line}: id is not an unsigned integer"),
            CsvError::DuplicateId { line, id } => {
                write!(f, "line {line}: duplicate entity id {id}")
            }
            CsvError::DuplicateColumn { name } => {
                write!(f, "line 1: header column {name:?} appears twice")
            }
            CsvError::Empty => write!(f, "no header row"),
        }
    }
}

impl std::error::Error for CsvError {}

/// Splits one logical CSV record starting at `lines[*idx]`, consuming
/// continuation lines when a quoted field spans newlines. Returns the
/// cells.
fn parse_record(
    lines: &[&str],
    idx: &mut usize,
    start_line: usize,
) -> Result<Vec<String>, CsvError> {
    let mut cells = Vec::new();
    let mut cell = String::new();
    let mut in_quotes = false;
    let mut line = lines[*idx];
    let mut chars = line.chars().peekable();
    loop {
        match chars.next() {
            Some('"') if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cell.push('"');
                } else {
                    in_quotes = false;
                }
            }
            Some('"') if cell.is_empty() && !in_quotes => in_quotes = true,
            Some(',') if !in_quotes => {
                cells.push(std::mem::take(&mut cell));
            }
            Some(c) => cell.push(c),
            None => {
                if in_quotes {
                    // Quoted field continues on the next physical line.
                    *idx += 1;
                    if *idx >= lines.len() {
                        return Err(CsvError::UnterminatedQuote { line: start_line });
                    }
                    cell.push('\n');
                    line = lines[*idx];
                    chars = line.chars().peekable();
                } else {
                    cells.push(cell);
                    return Ok(cells);
                }
            }
        }
    }
}

/// Infers a typed [`Value`] from a non-empty cell.
pub fn infer_value(cell: &str) -> Value {
    match cell {
        "true" => return Value::Bool(true),
        "false" => return Value::Bool(false),
        _ => {}
    }
    if let Ok(i) = cell.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(x) = cell.parse::<f64>() {
        if x.is_finite() {
            return Value::Float(x);
        }
    }
    Value::Text(cell.to_owned())
}

/// Parses a whole CSV document into entities, interning attribute names
/// into `catalog`.
///
/// # Errors
/// Structural errors with line numbers; see [`CsvError`].
pub fn parse_entities(
    text: &str,
    catalog: &mut AttributeCatalog,
) -> Result<Vec<Entity>, CsvError> {
    let lines: Vec<&str> = text.lines().collect();
    if lines.is_empty() || lines.iter().all(|l| l.trim().is_empty()) {
        return Err(CsvError::Empty);
    }
    let mut idx = 0;
    let header = parse_record(&lines, &mut idx, 1)?;
    idx += 1;
    let has_id = header.first().is_some_and(|h| h.trim() == "id");
    let attr_start = usize::from(has_id);
    let mut attrs: Vec<AttrId> = Vec::new();
    let mut named = std::collections::HashSet::new();
    for name in &header[attr_start..] {
        let id = catalog.intern(name.trim());
        if !named.insert(id) {
            return Err(CsvError::DuplicateColumn { name: name.trim().to_owned() });
        }
        attrs.push(id);
    }

    let mut entities = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut next_id = 0u64;
    while idx < lines.len() {
        let line_no = idx + 1;
        if lines[idx].trim().is_empty() {
            idx += 1;
            continue;
        }
        let cells = parse_record(&lines, &mut idx, line_no)?;
        idx += 1;
        if cells.len() > header.len() {
            return Err(CsvError::TooManyCells { line: line_no });
        }
        let id = if has_id {
            let raw = cells.first().map(String::as_str).unwrap_or("");
            raw.trim()
                .parse::<u64>()
                .map_err(|_| CsvError::BadId { line: line_no })?
        } else {
            let id = next_id;
            next_id += 1;
            id
        };
        if !seen.insert(id) {
            return Err(CsvError::DuplicateId { line: line_no, id });
        }
        let mut entity = Entity::empty(EntityId(id));
        for (col, cell) in cells.iter().skip(attr_start).enumerate() {
            if !cell.is_empty() {
                entity.set(attrs[col], infer_value(cell));
            }
        }
        entities.push(entity);
    }
    Ok(entities)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sparse_rows_with_types() {
        let text = "id,name,weight,wifi\n\
                    1,Canon S120,198,true\n\
                    2,WD4000,,\n\
                    7,,9800,false\n";
        let mut cat = AttributeCatalog::new();
        let entities = parse_entities(text, &mut cat).unwrap();
        assert_eq!(entities.len(), 3);
        assert_eq!(cat.len(), 3); // id column is not an attribute
        let name = cat.lookup("name").unwrap();
        let weight = cat.lookup("weight").unwrap();
        let wifi = cat.lookup("wifi").unwrap();

        let e1 = &entities[0];
        assert_eq!(e1.id(), EntityId(1));
        assert_eq!(e1.get(name), Some(&Value::Text("Canon S120".into())));
        assert_eq!(e1.get(weight), Some(&Value::Int(198)));
        assert_eq!(e1.get(wifi), Some(&Value::Bool(true)));

        let e2 = &entities[1];
        assert_eq!(e2.arity(), 1, "empty cells are absent attributes");
        let e3 = &entities[2];
        assert_eq!(e3.id(), EntityId(7));
        assert!(!e3.has(name));
        assert_eq!(e3.get(wifi), Some(&Value::Bool(false)));
    }

    #[test]
    fn rows_without_id_column_get_row_numbers() {
        let text = "a,b\n1,\n,2\n";
        let mut cat = AttributeCatalog::new();
        let entities = parse_entities(text, &mut cat).unwrap();
        assert_eq!(entities[0].id(), EntityId(0));
        assert_eq!(entities[1].id(), EntityId(1));
    }

    #[test]
    fn quotes_escapes_and_embedded_commas() {
        let text = "id,name,comment\n1,\"Dell, Inc.\",\"said \"\"hi\"\"\"\n";
        let mut cat = AttributeCatalog::new();
        let entities = parse_entities(text, &mut cat).unwrap();
        let name = cat.lookup("name").unwrap();
        let comment = cat.lookup("comment").unwrap();
        assert_eq!(entities[0].get(name), Some(&Value::Text("Dell, Inc.".into())));
        assert_eq!(
            entities[0].get(comment),
            Some(&Value::Text("said \"hi\"".into()))
        );
    }

    #[test]
    fn quoted_field_spanning_lines() {
        let text = "id,note\n1,\"two\nlines\"\n2,x\n";
        let mut cat = AttributeCatalog::new();
        let entities = parse_entities(text, &mut cat).unwrap();
        assert_eq!(entities.len(), 2);
        let note = cat.lookup("note").unwrap();
        assert_eq!(entities[0].get(note), Some(&Value::Text("two\nlines".into())));
    }

    #[test]
    fn short_rows_are_fine_long_rows_are_not() {
        let mut cat = AttributeCatalog::new();
        // Short row: trailing attributes absent.
        let entities = parse_entities("id,a,b\n1,5\n", &mut cat).unwrap();
        assert_eq!(entities[0].arity(), 1);
        // Long row: an error, not silent truncation.
        assert_eq!(
            parse_entities("id,a\n1,2,3\n", &mut AttributeCatalog::new()),
            Err(CsvError::TooManyCells { line: 2 })
        );
    }

    #[test]
    fn error_cases() {
        let mut cat = AttributeCatalog::new();
        assert_eq!(parse_entities("", &mut cat), Err(CsvError::Empty));
        assert_eq!(
            parse_entities("id,a\nx,1\n", &mut cat),
            Err(CsvError::BadId { line: 2 })
        );
        assert_eq!(
            parse_entities("id,a\n1,x\n1,y\n", &mut cat),
            Err(CsvError::DuplicateId { line: 3, id: 1 })
        );
        assert_eq!(
            parse_entities("id,a\n1,\"open\n", &mut cat),
            Err(CsvError::UnterminatedQuote { line: 2 })
        );
    }

    #[test]
    fn repeated_header_column_is_an_error() {
        let err = parse_entities("id,a, b,a \n1,1,2,3\n", &mut AttributeCatalog::new());
        assert_eq!(err, Err(CsvError::DuplicateColumn { name: "a".into() }));
        assert_eq!(
            err.unwrap_err().to_string(),
            "line 1: header column \"a\" appears twice"
        );
        // `id` leads the row as the entity id, so a later `id` column is
        // an attribute like any other.
        let entities = parse_entities("id,id\n1,2\n", &mut AttributeCatalog::new()).unwrap();
        assert_eq!(entities[0].arity(), 1);
    }

    #[test]
    fn value_inference() {
        assert_eq!(infer_value("42"), Value::Int(42));
        assert_eq!(infer_value("-7"), Value::Int(-7));
        assert_eq!(infer_value("2.5"), Value::Float(2.5));
        assert_eq!(infer_value("true"), Value::Bool(true));
        assert_eq!(infer_value("True"), Value::Text("True".into()));
        assert_eq!(infer_value("4TB"), Value::Text("4TB".into()));
        assert_eq!(infer_value("NaN"), Value::Text("NaN".into()));
    }
}

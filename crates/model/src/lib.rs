//! Data model for irregularly structured universal tables.
//!
//! A *universal table* (paper §I–II) centralises a heterogeneous set of
//! entities under one very wide, very sparse schema. This crate defines the
//! vocabulary every other crate speaks:
//!
//! * [`AttrId`] / [`AttributeCatalog`] — the interned attribute dictionary of
//!   a table. Attribute names are interned once; everything downstream
//!   (synopses, records, queries) works with dense `u32` ids.
//! * [`Value`] — a dynamically typed attribute value.
//! * [`Entity`] — an entity: an id plus its instantiated `(AttrId, Value)`
//!   pairs. Absent attributes are simply not present (no NULL storage).
//! * [`Synopsis`] — the attribute-set summary of an entity or partition,
//!   exposing exactly the count operators the paper's rating needs.
//! * [`SizeModel`] — the pluggable `SIZE()` function of Definition 1:
//!   logical cells or serialized bytes.
//! * [`schema`] — descriptions of *regular* relational schemas, used by the
//!   TPC-H experiment (Table I) where Cinderella must rediscover the schema.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![warn(missing_docs)]

mod attribute;
mod entity;
mod error;
pub mod schema;
mod size;
mod synopsis;
mod value;

pub use attribute::{AttrId, AttributeCatalog};
pub use entity::{Entity, EntityId};
pub use error::ModelError;
pub use size::SizeModel;
pub use synopsis::Synopsis;
pub use value::{Value, ValueRef};

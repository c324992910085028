//! Electronics product catalog generator (Fig. 1 motivation scenario).
//!
//! The paper motivates the universal table with a product catalog of
//! electronic devices: cameras have `resolution`/`aperture`, TVs have
//! `screen`/`tuner`, hard drives have `rotation`/`form factor`, and almost
//! everything has `name` and `weight`. This generator produces such a
//! catalog for the examples and the quickstart.

use cind_model::{AttrId, AttributeCatalog, Entity, EntityId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A product category: a name, mandatory attributes, and optional
/// attributes instantiated with probability 0.5.
struct Category {
    name: &'static str,
    mandatory: &'static [&'static str],
    optional: &'static [&'static str],
}

const CATEGORIES: &[Category] = &[
    Category {
        name: "compact-camera",
        mandatory: &["name", "resolution", "aperture", "screen", "weight"],
        optional: &["zoom", "gps", "wifi"],
    },
    Category {
        name: "dslr-camera",
        mandatory: &["name", "resolution", "screen", "weight"],
        optional: &["aperture", "viewfinder", "gps"],
    },
    Category {
        name: "smartphone",
        mandatory: &["name", "resolution", "screen", "storage", "weight"],
        optional: &["wifi", "dualSim", "nfc"],
    },
    Category {
        name: "media-player",
        mandatory: &["name", "screen", "storage", "weight"],
        optional: &["radio", "wifi"],
    },
    Category {
        name: "tv",
        mandatory: &["name", "resolution", "screen", "tuner", "weight"],
        optional: &["smartTv", "wifi"],
    },
    Category {
        name: "hard-drive",
        mandatory: &["name", "storage", "rotation", "formFactor", "weight"],
        optional: &["cache"],
    },
    Category {
        name: "gps-device",
        mandatory: &["name", "screen", "weight"],
        optional: &["storage", "gps", "rotation"],
    },
];

/// Generates product entities across the Fig. 1 categories.
pub struct ProductGenerator {
    seed: u64,
}

impl ProductGenerator {
    /// Creates a generator with a seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Category names, in generation order.
    pub fn category_names() -> Vec<&'static str> {
        CATEGORIES.iter().map(|c| c.name).collect()
    }

    /// Generates `n` products round-robin over the categories. Returns the
    /// entities and each entity's category index.
    pub fn generate(
        &self,
        catalog: &mut AttributeCatalog,
        n: usize,
    ) -> (Vec<Entity>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut entities = Vec::with_capacity(n);
        let mut origin = Vec::with_capacity(n);
        for i in 0..n {
            let cat_idx = i % CATEGORIES.len();
            let cat = &CATEGORIES[cat_idx];
            let mut attrs: Vec<(AttrId, Value)> = Vec::new();
            for a in cat.mandatory {
                attrs.push((catalog.intern(a), Self::value(a, cat.name, i, &mut rng)));
            }
            for a in cat.optional {
                if rng.gen_bool(0.5) {
                    attrs.push((catalog.intern(a), Self::value(a, cat.name, i, &mut rng)));
                }
            }
            #[expect(
                clippy::expect_used,
                reason = "a category's mandatory and optional attributes are distinct names"
            )]
            entities.push(Entity::new(EntityId(i as u64), attrs).expect("unique attrs"));
            origin.push(cat_idx);
        }
        (entities, origin)
    }

    fn value(attr: &str, category: &str, i: usize, rng: &mut StdRng) -> Value {
        match attr {
            "name" => Value::Text(format!("{category}-{i}")),
            "weight" => Value::Int(rng.gen_range(80..10_000)),
            "resolution" => Value::Float(f64::from(rng.gen_range(50..500)) / 10.0),
            "screen" => Value::Float(f64::from(rng.gen_range(20..700)) / 10.0),
            "storage" => Value::Text(format!("{}GB", 2u32 << rng.gen_range(0..10))),
            "rotation" => Value::Int([5400, 7200, 10_000][rng.gen_range(0..3usize)]),
            "aperture" => Value::Float(f64::from(rng.gen_range(10..40)) / 10.0),
            _ => Value::Bool(true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_categories() {
        let mut catalog = AttributeCatalog::new();
        let (entities, origin) = ProductGenerator::new(1).generate(&mut catalog, 70);
        assert_eq!(entities.len(), 70);
        for cat_idx in 0..CATEGORIES.len() {
            assert!(origin.contains(&cat_idx));
        }
        // Every entity has its category's mandatory attributes.
        for (e, &c) in entities.iter().zip(&origin) {
            for a in CATEGORIES[c].mandatory {
                let id = catalog.lookup(a).unwrap();
                assert!(e.has(id), "{} missing {a}", CATEGORIES[c].name);
            }
        }
    }

    #[test]
    fn shared_and_specific_attributes() {
        let mut catalog = AttributeCatalog::new();
        let (entities, origin) = ProductGenerator::new(2).generate(&mut catalog, 140);
        let name = catalog.lookup("name").unwrap();
        assert!(entities.iter().all(|e| e.has(name)), "name is universal");
        // Tuner only on TVs, aperture never on hard drives.
        let tuner = catalog.lookup("tuner").unwrap();
        let tv = CATEGORIES.iter().position(|c| c.name == "tv").unwrap();
        for (e, &c) in entities.iter().zip(&origin) {
            assert_eq!(e.has(tuner), c == tv);
        }
    }
}

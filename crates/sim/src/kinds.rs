//! Retired-instruction counts per Figure 15 category, kept the same way
//! by the emulators and the cycle-accurate cores.

use std::collections::BTreeMap;
use std::ops::{AddAssign, Index, IndexMut};

use straight_isa::InstKind;
use straight_json::{FromJson, Json, JsonError, ToJson};

/// Retired-instruction counts per [`InstKind`]. A flat array rather
/// than a map: the retire paths bump one count per instruction, and the
/// fast emulator tier adds a whole translated trace's counts at once.
///
/// The JSON form is an object of the non-zero counts keyed by
/// [`InstKind::name`], in lexicographic key order; reading one back
/// rejects a key that names no category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounts([u64; InstKind::COUNT]);

impl KindCounts {
    /// The non-zero counts with their category names, in lexicographic
    /// name order (the order of the JSON keys).
    pub fn nonzero(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let mut kinds = InstKind::ALL;
        kinds.sort_by_key(|k| k.name());
        kinds
            .into_iter()
            .map(|k| (k.name(), self[k]))
            .filter(|&(_, n)| n != 0)
    }
}

impl Index<InstKind> for KindCounts {
    type Output = u64;

    #[inline]
    fn index(&self, kind: InstKind) -> &u64 {
        &self.0[kind as usize]
    }
}

impl IndexMut<InstKind> for KindCounts {
    #[inline]
    fn index_mut(&mut self, kind: InstKind) -> &mut u64 {
        &mut self.0[kind as usize]
    }
}

impl AddAssign<&KindCounts> for KindCounts {
    #[inline]
    fn add_assign(&mut self, other: &KindCounts) {
        for (total, add) in self.0.iter_mut().zip(other.0) {
            *total += add;
        }
    }
}

impl ToJson for KindCounts {
    fn to_json(&self) -> Json {
        Json::obj(self.nonzero().map(|(name, n)| (name, n.to_json())))
    }
}

impl FromJson for KindCounts {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let mut counts = KindCounts::default();
        for (name, n) in BTreeMap::<String, u64>::from_json(value)? {
            let kind = InstKind::ALL
                .into_iter()
                .find(|k| k.name() == name)
                .ok_or_else(|| {
                    JsonError::Shape(format!("unknown retired-instruction kind `{name}`"))
                })?;
            counts[kind] = n;
        }
        Ok(counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_nonzero_counts_by_name_and_rejects_unknown_keys() {
        let mut counts = KindCounts::default();
        counts[InstKind::Rmov] = 2;
        counts[InstKind::Alu] = 5;
        counts[InstKind::Nop] = 1;
        let json = counts.to_json();
        assert_eq!(json.render(), r#"{"alu":5,"nop":1,"rmov":2}"#);
        assert_eq!(KindCounts::from_json(&json).unwrap(), counts);
        let unknown = Json::parse(r#"{"alu":5,"fma":3}"#).unwrap();
        assert!(KindCounts::from_json(&unknown).is_err());
    }
}

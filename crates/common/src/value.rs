//! Tuple value representation.
//!
//! P4DB's switch stores hot tuples in register arrays whose cells are
//! fixed-width machine words (8 bytes on the Tofino generation used in the
//! paper, §2.3), and the host DBMS is a main-memory store with fixed-size
//! rows. A [`Value`] is one 64-bit word: the tuple's "switch column" (§7.5,
//! e.g. `d_next_o_id`, `w_ytd` or an account balance), the word that is
//! offloaded to a switch register when the tuple is hot. Every workload
//! here reads and writes only that column, so the host keeps nothing else:
//! a row's live value fits one atomic word, which lets the row store it
//! without a latch (see `p4db_storage::Row`).

/// A row value: one 64-bit word.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Value(u64);

impl Value {
    /// Creates a value holding `v`.
    #[inline]
    pub fn scalar(v: u64) -> Self {
        Self(v)
    }

    /// The switch column: the 64-bit word that is offloaded to a switch
    /// register when this tuple is in the hot set.
    #[inline]
    pub fn switch_word(&self) -> u64 {
        self.0
    }

    /// Overwrites the switch column.
    #[inline]
    pub fn set_switch_word(&mut self, v: u64) {
        self.0 = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_one_word() {
        let v = Value::scalar(17);
        assert_eq!(v.switch_word(), 17);
        assert_eq!(std::mem::size_of::<Value>(), 8);
        assert_eq!(Value::default(), Value::scalar(0));
    }

    #[test]
    fn set_switch_word_overwrites() {
        let mut v = Value::scalar(1);
        v.set_switch_word(42);
        assert_eq!(v, Value::scalar(42));
    }
}

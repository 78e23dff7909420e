//! Host scalar variables (`amtSpent`, `time`, `targetSpendRate`, …).
//!
//! Every campaign database of a program sets the same handful of names, so
//! a name is interned once per process ([`VarName`], through a table of weak
//! references like the script interner's) and a database keeps only a small
//! vector of `(name, value)` pairs. The names a plan reads are interned when
//! it is lowered, which makes a lookup from a plan one pointer comparison
//! per variable and lets a database set a name it already has without
//! allocating.

use crate::script::WeakInterner;
use crate::value::Value;
use std::sync::{Arc, LazyLock};

static NAMES: LazyLock<WeakInterner<VarName>> = LazyLock::new(WeakInterner::new);

/// A lowercase variable name, interned: while any holder keeps a name alive
/// there is exactly one `VarName` of that text, so two holders compare
/// equal if and only if their `Arc`s are the same.
#[derive(Debug)]
pub(crate) struct VarName {
    text: Arc<str>,
}

impl VarName {
    /// The interned name for `name` in any case.
    pub(crate) fn intern(name: &str) -> Arc<VarName> {
        let lower = name.to_ascii_lowercase();
        if let Some(live) = NAMES.get(&lower) {
            return live;
        }
        NAMES.insert_with(&lower, |text| VarName { text })
    }

    fn as_str(&self) -> &str {
        &self.text
    }
}

impl Drop for VarName {
    fn drop(&mut self) {
        NAMES.forget(&self.text, self);
    }
}

/// One database's variables, in the order they were first set.
#[derive(Debug, Clone, Default)]
pub(crate) struct Vars {
    slots: Vec<(Arc<VarName>, Value)>,
}

impl Vars {
    /// The value of an interned name.
    pub(crate) fn get(&self, name: &Arc<VarName>) -> Option<&Value> {
        self.slots
            .iter()
            .find(|(own, _)| Arc::ptr_eq(own, name))
            .map(|(_, value)| value)
    }

    /// The value of `name` in any case.
    pub(crate) fn find(&self, name: &str) -> Option<&Value> {
        self.slots
            .iter()
            .find(|(own, _)| own.as_str().eq_ignore_ascii_case(name))
            .map(|(_, value)| value)
    }

    /// Sets an interned name.
    pub(crate) fn set(&mut self, name: &Arc<VarName>, value: Value) {
        match self
            .slots
            .iter_mut()
            .find(|(own, _)| Arc::ptr_eq(own, name))
        {
            Some(slot) => slot.1 = value,
            None => self.push(Arc::clone(name), value),
        }
    }

    /// Sets `name` in any case; interns it only if this database has not
    /// set it before.
    pub(crate) fn set_named(&mut self, name: &str, value: Value) {
        match self
            .slots
            .iter_mut()
            .find(|(own, _)| own.as_str().eq_ignore_ascii_case(name))
        {
            Some(slot) => slot.1 = value,
            None => self.push(VarName::intern(name), value),
        }
    }

    fn push(&mut self, name: Arc<VarName>, value: Value) {
        // A program sets its variables once and then only overwrites them:
        // size the vector to what it holds rather than doubling.
        self.slots.reserve_exact(1);
        self.slots.push((name, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_name_per_text_while_held() {
        let a = VarName::intern("vars_test_Spent");
        let b = VarName::intern("VARS_TEST_SPENT");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.as_str(), "vars_test_spent");
    }

    #[test]
    fn interned_and_spelled_lookups_agree() {
        let name = VarName::intern("vars_test_time");
        let mut vars = Vars::default();
        vars.set_named("Vars_Test_Time", Value::Int(1));
        assert_eq!(vars.get(&name), Some(&Value::Int(1)));
        vars.set(&name, Value::Int(2));
        assert_eq!(vars.find("VARS_TEST_TIME"), Some(&Value::Int(2)));
        assert_eq!(vars.slots.len(), 1);
        assert_eq!(vars.find("vars_test_other"), None);
    }
}

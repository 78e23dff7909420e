//! Host scalar variables (`amtSpent`, `time`, `targetSpendRate`, …).
//!
//! Every campaign database of a program sets the same handful of names in
//! the same order, so a name is interned once per process ([`VarName`],
//! through a table of weak references like the script interner's), and so
//! is the ordered list of names ([`VarList`]). A database holds that list
//! and a value per name, by position. The names a plan reads are interned
//! when it is lowered, which makes a lookup from a plan one pointer
//! comparison per variable and lets a database set a name it already has
//! without allocating.

use crate::script::WeakInterner;
use crate::table::push_exact;
use crate::value::Value;
use std::sync::{Arc, LazyLock, Mutex, PoisonError, Weak};

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

/// The names a database has set, in order: a node of a process-wide tree
/// rooted at the empty list, each edge appending one name. A node holds its
/// parent and, weakly, its children, so the lists on the way to one in use
/// stay alive and the next database taking the same steps allocates none.
#[derive(Debug, Default)]
struct VarList {
    names: Box<[Arc<VarName>]>,
    _parent: Option<Arc<VarList>>,
    children: Mutex<Vec<Weak<VarList>>>,
}

impl VarList {
    /// The list with no names, where every database starts: pinned, so
    /// starting a database allocates nothing.
    fn empty() -> Arc<VarList> {
        static EMPTY: LazyLock<Arc<VarList>> = LazyLock::new(Arc::default);
        Arc::clone(&EMPTY)
    }

    /// This list with `name` appended.
    fn with(self: &Arc<Self>, name: Arc<VarName>) -> Arc<VarList> {
        // Each critical section leaves the vector whole: poison means nothing.
        let mut children = self.children.lock().unwrap_or_else(PoisonError::into_inner);
        let appends =
            |child: &Arc<VarList>| child.names.last().is_some_and(|n| Arc::ptr_eq(n, &name));
        if let Some(live) = children.iter().filter_map(Weak::upgrade).find(appends) {
            return live;
        }
        children.retain(|child| child.strong_count() > 0);
        let names = self.names.iter().chain([&name]).cloned().collect();
        let child = Arc::new(VarList {
            names,
            _parent: Some(Arc::clone(self)),
            children: Mutex::default(),
        });
        children.push(Arc::downgrade(&child));
        child
    }

    /// The position of an interned name.
    fn position(&self, name: &Arc<VarName>) -> Option<usize> {
        self.names.iter().position(|own| Arc::ptr_eq(own, name))
    }

    /// The position of `name` in any case.
    fn find(&self, name: &str) -> Option<usize> {
        self.names
            .iter()
            .position(|own| own.as_str().eq_ignore_ascii_case(name))
    }
}

/// One database's variables: the shared list of their names, and the value
/// of each by position. Sized to what it holds: a program sets its
/// variables once and then only overwrites them.
#[derive(Debug, Clone)]
pub(crate) struct Vars {
    names: Arc<VarList>,
    values: Box<[Value]>,
}

impl Default for Vars {
    fn default() -> Self {
        Vars {
            names: VarList::empty(),
            values: Box::default(),
        }
    }
}

impl Vars {
    /// The value of an interned name.
    pub(crate) fn get(&self, name: &Arc<VarName>) -> Option<&Value> {
        self.values.get(self.names.position(name)?)
    }

    /// The value of `name` in any case.
    pub(crate) fn find(&self, name: &str) -> Option<&Value> {
        self.values.get(self.names.find(name)?)
    }

    /// Sets an interned name.
    pub(crate) fn set(&mut self, name: &Arc<VarName>, value: Value) {
        match self.names.position(name) {
            Some(at) => self.values[at] = value,
            None => self.push(Arc::clone(name), value),
        }
    }

    /// Sets `name` in any case; interns it only if this database has not
    /// set it before.
    pub(crate) fn set_named(&mut self, name: &str, value: Value) {
        match self.names.find(name) {
            Some(at) => self.values[at] = value,
            None => self.push(VarName::intern(name), value),
        }
    }

    fn push(&mut self, name: Arc<VarName>, value: Value) {
        self.names = self.names.with(name);
        push_exact(&mut self.values, value);
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
        assert_eq!(vars.values.len(), 1);
        assert_eq!(vars.find("vars_test_other"), None);
    }

    #[test]
    fn databases_setting_the_same_names_share_one_list() {
        let mut a = Vars::default();
        let mut b = Vars::default();
        for vars in [&mut a, &mut b] {
            vars.set_named("vars_test_x", Value::Int(1));
            vars.set_named("vars_test_y", Value::Int(2));
        }
        assert!(Arc::ptr_eq(&a.names, &b.names));
        b.set_named("vars_test_y", Value::Int(3));
        assert!(
            Arc::ptr_eq(&a.names, &b.names),
            "overwriting keeps the list"
        );
        assert_eq!(a.find("vars_test_y"), Some(&Value::Int(2)));
        // Another order is another list.
        let mut c = Vars::default();
        c.set_named("vars_test_y", Value::Int(2));
        c.set_named("vars_test_x", Value::Int(1));
        assert!(!Arc::ptr_eq(&a.names, &c.names));
        assert_eq!(c.find("vars_test_x"), Some(&Value::Int(1)));
    }
}

//! Host scalar variables (`amtSpent`, `time`, `targetSpendRate`, …).
//!
//! A variable's name belongs to the catalog ([`crate::script::CatalogShape`]):
//! a database holds one value slot per name, and a plan reads a variable by
//! its slot, so setting or reading one the catalog names allocates nothing.
//! A name set for the first time gives the database a catalog of its own; a
//! [`crate::Template`] names every variable its scripts and host use, so
//! its instances never do. Reading a slot never set raises `NoSuchColumn`,
//! as reading a name nobody set does.

use crate::exec::Database;
use crate::table::push_exact;
use crate::value::Value;
use std::sync::Arc;

/// The variable names of a catalog, lowercase, in slot order.
#[derive(Debug, Default, Clone)]
pub(crate) struct VarNames(Box<[Box<str>]>);

impl VarNames {
    /// The slot of `name` in any case.
    pub(crate) fn slot(&self, name: &str) -> Option<usize> {
        self.0.iter().position(|own| own.eq_ignore_ascii_case(name))
    }

    /// These names followed by those of `names` that are new, in order.
    pub(crate) fn with<'n>(&self, names: impl IntoIterator<Item = &'n str>) -> VarNames {
        let mut all = self.0.to_vec();
        for name in names {
            if !all.iter().any(|own| own.eq_ignore_ascii_case(name)) {
                all.push(name.to_ascii_lowercase().into());
            }
        }
        VarNames(all.into_boxed_slice())
    }
}

impl Database {
    /// Sets a host scalar variable (e.g. `amtSpent`, `time`); names are
    /// case-insensitive. Overwriting a variable the catalog names allocates
    /// nothing.
    pub fn set_var(&mut self, name: &str, value: Value) {
        let slot = match self.shape.vars.slot(name) {
            Some(slot) => slot,
            None => {
                self.declare_vars([name]);
                self.vars.len() - 1
            }
        };
        self.vars[slot] = Some(value);
    }

    /// Reads a host scalar variable.
    pub fn var(&self, name: &str) -> Option<&Value> {
        self.vars.get(self.shape.vars.slot(name)?)?.as_ref()
    }

    /// Adds those of `names` the catalog lacks to it, unset.
    pub(crate) fn declare_vars<'n>(&mut self, names: impl IntoIterator<Item = &'n str>) {
        let vars = self.shape.vars.with(names);
        while self.vars.len() < vars.0.len() {
            push_exact(&mut self.vars, None);
        }
        self.shape = Arc::new(self.shape.with_vars(vars));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Template, NO_PARAMS};

    #[test]
    fn interned_and_spelled_lookups_agree() {
        // The host sets a variable by name, a plan reads it by slot: they
        // agree, and overwriting keeps the slot and the catalog, so the
        // memoised plan stays valid.
        let mut db = Database::new();
        db.run("CREATE TABLE t (a INT); INSERT INTO t VALUES (0)")
            .unwrap();
        db.set_var("Vars_Test_Time", Value::Int(1));
        let mut read = db.prepare("SELECT vars_test_time FROM t").unwrap();
        assert_eq!(read.query(&mut db, NO_PARAMS).unwrap(), [[Value::Int(1)]]);
        let plans = db.planner_stats().plans_cached;
        db.run("SET VARS_TEST_TIME = vars_test_time + 1").unwrap();
        assert_eq!(read.query(&mut db, NO_PARAMS).unwrap(), [[Value::Int(2)]]);
        assert_eq!(
            db.planner_stats().plans_cached,
            plans,
            "the memo still fits"
        );
        assert_eq!(db.var("VARS_TEST_TIME"), Some(&Value::Int(2)));
        assert_eq!(db.vars.len(), 1);
        assert_eq!(db.var("vars_test_other"), None);
    }

    #[test]
    fn databases_setting_the_same_names_share_one_list() {
        let template = Template::compile(&["SET x = 1; SET y = 2"], &["host"]).unwrap();
        let mut a = template.instantiate(NO_PARAMS).unwrap();
        let mut b = template.instantiate(NO_PARAMS).unwrap();
        assert!(Arc::ptr_eq(&a.shape, &b.shape));
        b.set_var("Y", Value::Int(3));
        b.set_var("host", Value::Int(4));
        assert!(
            Arc::ptr_eq(&a.shape, &b.shape),
            "overwriting keeps the list"
        );
        assert_eq!(a.var("y"), Some(&Value::Int(2)));
        assert_eq!(a.var("host"), None, "named, never set");
        // A name the template lacks makes the list the database's own.
        a.set_var("z", Value::Int(5));
        assert!(!Arc::ptr_eq(&a.shape, &b.shape));
        assert_eq!((a.var("z"), b.var("z")), (Some(&Value::Int(5)), None));
    }
}

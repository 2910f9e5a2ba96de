//! The workspace-wide string interner.
//!
//! Every QName component is interned into a process-global table and
//! handled as a [`Sym`] — a `u32` index. Name comparisons across the whole
//! stack (path steps, attribute lookups, compiled-expression cache keys)
//! become integer compares, and resolution back to text is a single slice
//! index.
//!
//! Interned strings are leaked: the table holds names from query sources,
//! stylesheets, and document vocabularies. String *literals* are not
//! interned — a lowered query owns its literals and frees them with the
//! plan — so a stream of distinct literals does not grow the table.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned string. Equality, ordering-by-id, and hashing are integer
/// operations; `as_str` resolves back to the text.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

struct Interner {
    lookup: HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            lookup: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

/// How many distinct strings the process has interned so far.
pub fn interned_count() -> usize {
    interner().read().expect("interner poisoned").strings.len()
}

/// Interns `s`, returning its stable symbol. Idempotent: the same text
/// always yields the same `Sym` for the life of the process.
pub fn intern(s: &str) -> Sym {
    {
        let table = interner().read().expect("interner poisoned");
        if let Some(&id) = table.lookup.get(s) {
            return Sym(id);
        }
    }
    let mut table = interner().write().expect("interner poisoned");
    if let Some(&id) = table.lookup.get(s) {
        return Sym(id);
    }
    let id = u32::try_from(table.strings.len()).expect("interner exceeded u32 symbols");
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    table.strings.push(leaked);
    table.lookup.insert(leaked, id);
    Sym(id)
}

impl Sym {
    /// The interned text. `'static` because the table never frees entries.
    pub fn as_str(self) -> &'static str {
        interner().read().expect("interner poisoned").strings[self.0 as usize]
    }

    /// Raw table index, usable as a dense key.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({}, {:?})", self.0, self.as_str())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Self {
        intern(s)
    }
}

impl From<&String> for Sym {
    fn from(s: &String) -> Self {
        intern(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Self {
        intern(&s)
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_text_same_symbol() {
        let a = intern("book");
        let b = intern("book");
        let c = intern("chapter");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "book");
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    (0..100)
                        .map(|j| intern(&format!("concurrent-{}", (i + j) % 10)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<Sym>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for syms in &results {
            for s in syms {
                assert!(s.as_str().starts_with("concurrent-"));
            }
        }
        assert_eq!(intern("concurrent-0"), intern("concurrent-0"));
    }
}

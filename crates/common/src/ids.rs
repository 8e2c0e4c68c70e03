//! Identifier newtypes: threads, events, registers and shared locations.
//!
//! `Reg` and `Loc` are *interned*: the first construction of a given name
//! hashes the string once into a process-wide table and every subsequent
//! construction, clone, equality test and hash is a dense-id operation.
//! The enumeration engine builds relations keyed by location for every
//! candidate execution, so keeping string hashing out of that path matters
//! (ROADMAP "Next levers": interning `Loc`/`Reg` out of the hot path).
//! Display/`as_str` round-trip the original spelling for litmus printing.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// A process-wide string interner: name → dense id, id → leaked `'static`
/// name. One instance per identifier kind so ids stay dense per kind.
///
/// Interned names are leaked deliberately: the set of distinct register and
/// location names a run can see is small (bounded by the litmus corpus), and
/// leaking buys `Copy`-cheap handles with allocation-free reads.
struct Interner {
    ids: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

impl Interner {
    fn new() -> Interner {
        Interner {
            ids: HashMap::new(),
            names: Vec::new(),
        }
    }

    fn intern(&mut self, name: &str) -> (u32, &'static str) {
        if let Some(&id) = self.ids.get(name) {
            return (id, self.names[id as usize]);
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = u32::try_from(self.names.len()).expect("interner overflow");
        self.names.push(leaked);
        self.ids.insert(leaked, id);
        (id, leaked)
    }
}

/// The interner kinds, as indices into [`INTERNERS`] and the memos.
const LOC: usize = 0;
const REG: usize = 1;
const SYM: usize = 2;

/// The process-wide interners, one per kind.
static INTERNERS: [OnceLock<Mutex<Interner>>; 3] =
    [OnceLock::new(), OnceLock::new(), OnceLock::new()];

/// A per-thread memo of one interner: names this thread has already
/// interned, with the ids the process-wide table gave them.
type Memo = HashMap<&'static str, (u32, &'static str)>;

thread_local! {
    /// One memo per interner kind, in front of the process-wide mutexes:
    /// once a thread has seen a name, interning it again takes no lock, so
    /// campaign workers do not contend on it. Ids are assigned only under
    /// the mutex, so every thread sees the same id.
    static MEMOS: RefCell<[Memo; 3]> = RefCell::default();
}

fn interner(kind: usize) -> std::sync::MutexGuard<'static, Interner> {
    INTERNERS[kind]
        .get_or_init(|| Mutex::new(Interner::new()))
        .lock()
        .expect("interner poisoned")
}

fn intern_in(kind: usize, name: &str) -> (u32, &'static str) {
    let hit = MEMOS
        .try_with(|m| m.borrow()[kind].get(name).copied())
        .ok()
        .flatten();
    if let Some(hit) = hit {
        return hit;
    }
    let interned = interner(kind).intern(name);
    // A thread being torn down has no memo left; it simply skips caching.
    let _ = MEMOS.try_with(|m| m.borrow_mut()[kind].insert(interned.1, interned));
    interned
}

/// A general interned symbol: a dense id plus the leaked `'static` name.
///
/// Used for Cat-language identifiers (`po`, `rfe`, `hb`, …): the parser
/// interns every name once, and evaluation environments index value slots
/// by the dense id — a name lookup on the per-candidate hot path is an
/// array read, never a string compare or hash. Like [`Reg`]/[`Loc`],
/// equality and hashing are id operations, ordering is textual, and
/// `Display` round-trips the spelling.
///
/// ```
/// use telechat_common::Sym;
/// let a = Sym::new("rf");
/// assert_eq!(a, Sym::new("rf"));
/// assert_eq!(a.as_str(), "rf");
/// ```
#[derive(Clone, Copy)]
pub struct Sym {
    id: u32,
    name: &'static str,
}

impl Sym {
    /// Interns `name` (a string hash on first sight, an id lookup after).
    pub fn new(name: impl AsRef<str>) -> Sym {
        let (id, name) = intern_in(SYM, name.as_ref());
        Sym { id, name }
    }

    /// The dense interned id (unique per distinct name, process-wide).
    pub fn id(self) -> u32 {
        self.id
    }

    /// The id as a `usize` slot index.
    pub fn index(self) -> usize {
        self.id as usize
    }

    /// The symbol's spelling.
    pub fn as_str(self) -> &'static str {
        self.name
    }
}

/// One past the highest [`Sym`] id interned so far — the slot-vector width
/// that can hold every symbol currently in existence.
pub fn sym_count() -> usize {
    interner(SYM).names.len()
}

impl PartialEq for Sym {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Sym {}

impl Ord for Sym {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.id == other.id {
            return std::cmp::Ordering::Equal;
        }
        self.name.cmp(other.name)
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::hash::Hash for Sym {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Sym").field(&self.name).finish()
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Self {
        Sym::new(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Self {
        Sym::new(s)
    }
}

/// Identifies one thread of a litmus test (`P0`, `P1`, …).
///
/// Thread ids are dense and small: litmus tests in this project have at most
/// a handful of threads, so a `u8` payload is ample.
///
/// ```
/// use telechat_common::ThreadId;
/// assert_eq!(ThreadId(2).to_string(), "P2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(pub u8);

impl ThreadId {
    /// Zero-based index of the thread, as a `usize` for container indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Identifies one event of a candidate execution.
///
/// Event ids are assigned densely by the enumerator, in program order within
/// each thread, so they double as compact indices into relation bit-matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EventId(pub u32);

impl EventId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A thread-local register name (`r0`, `X2`, `W10`, `a5`, …), interned.
///
/// Registers compare *textually* for ordering (stable litmus printing) but
/// by dense id for equality and hashing; a clone is a 16-byte copy, never an
/// allocation. The ISA crates normalise aliases (for instance AArch64
/// `W`/`X` views of the same register) before constructing a `Reg`.
#[derive(Clone)]
pub struct Reg {
    id: u32,
    name: &'static str,
}

impl Reg {
    /// Creates a register from its textual name, interning it (a hash of the
    /// string on first sight of the name, an id lookup afterwards).
    pub fn new(name: impl AsRef<str>) -> Self {
        let (id, name) = intern_in(REG, name.as_ref());
        Reg { id, name }
    }

    /// The register's textual name.
    pub fn name(&self) -> &str {
        self.name
    }

    /// The dense interned id (unique per distinct name, process-wide).
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl PartialEq for Reg {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Reg {}

// Ordering stays textual — one interned name per id keeps it consistent
// with `Eq` — so sorted containers print in the same order as before
// interning.
impl Ord for Reg {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.id == other.id {
            return std::cmp::Ordering::Equal;
        }
        self.name.cmp(other.name)
    }
}

impl PartialOrd for Reg {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::hash::Hash for Reg {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Reg").field(&self.name).finish()
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

impl From<&str> for Reg {
    fn from(s: &str) -> Self {
        Reg::new(s)
    }
}

impl From<String> for Reg {
    fn from(s: String) -> Self {
        Reg::new(s)
    }
}

/// A symbolic shared-memory location (`x`, `y`, `ptr_x`, `x.hi`, …), interned.
///
/// Litmus tests name locations symbolically; object files lay them out at
/// numeric addresses and the `s2l` stage maps the addresses back to these
/// symbols using the symbol table and debug information. Like [`Reg`],
/// construction interns the name once; equality and hashing are dense-id
/// operations and ordering stays textual.
///
/// ```
/// use telechat_common::Loc;
/// let x = Loc::new("x");
/// assert_eq!(x.as_str(), "x");
/// assert_eq!(x.hi_half().as_str(), "x.hi");
/// ```
#[derive(Clone)]
pub struct Loc {
    id: u32,
    name: &'static str,
}

impl Loc {
    /// Creates a location from its symbolic name, interning it.
    pub fn new(name: impl AsRef<str>) -> Self {
        let (id, name) = intern_in(LOC, name.as_ref());
        Loc { id, name }
    }

    /// The symbolic name.
    pub fn as_str(&self) -> &str {
        self.name
    }

    /// The dense interned id (unique per distinct name, process-wide).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The low 64-bit half of a 128-bit location.
    pub fn lo_half(&self) -> Loc {
        Loc::new(format!("{}.lo", self.name))
    }

    /// The high 64-bit half of a 128-bit location.
    pub fn hi_half(&self) -> Loc {
        Loc::new(format!("{}.hi", self.name))
    }

    /// True if this location is one half of a split 128-bit location.
    pub fn is_half(&self) -> bool {
        self.name.ends_with(".lo") || self.name.ends_with(".hi")
    }

    /// For a half location, the base 128-bit location name.
    pub fn half_base(&self) -> Option<Loc> {
        self.name
            .strip_suffix(".lo")
            .or_else(|| self.name.strip_suffix(".hi"))
            .map(Loc::new)
    }
}

impl PartialEq for Loc {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Loc {}

impl Ord for Loc {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.id == other.id {
            return std::cmp::Ordering::Equal;
        }
        self.name.cmp(other.name)
    }
}

impl PartialOrd for Loc {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::hash::Hash for Loc {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl fmt::Debug for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Loc").field(&self.name).finish()
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

impl From<&str> for Loc {
    fn from(s: &str) -> Self {
        Loc::new(s)
    }
}

impl From<String> for Loc {
    fn from(s: String) -> Self {
        Loc::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_display() {
        assert_eq!(ThreadId(0).to_string(), "P0");
        assert_eq!(ThreadId(7).to_string(), "P7");
    }

    #[test]
    fn event_ordering_is_numeric() {
        assert!(EventId(2) < EventId(10));
    }

    #[test]
    fn reg_round_trip() {
        let r = Reg::new("X12");
        assert_eq!(r.name(), "X12");
        assert_eq!(r.to_string(), "X12");
        assert_eq!(Reg::from("X12"), r);
    }

    #[test]
    fn loc_halves() {
        let q = Loc::new("q");
        assert!(!q.is_half());
        let hi = q.hi_half();
        assert!(hi.is_half());
        assert_eq!(hi.half_base(), Some(q.clone()));
        assert_eq!(q.lo_half().half_base(), Some(q));
    }

    #[test]
    fn loc_ordering_textual() {
        assert!(Loc::new("x") < Loc::new("y"));
        // Interning order must not leak into comparison order.
        let b = Loc::new("zz_interned_late_b");
        let a = Loc::new("zz_interned_late_a");
        assert!(a < b);
        assert!(b > a);
    }

    #[test]
    fn interning_is_stable() {
        let a = Loc::new("same");
        let b = Loc::new(String::from("same"));
        assert_eq!(a.id(), b.id());
        assert_eq!(a, b);
        let r1 = Reg::new("r9");
        let r2 = Reg::new("r9");
        assert_eq!(r1.id(), r2.id());
        // Distinct names get distinct ids.
        assert_ne!(Loc::new("one").id(), Loc::new("two").id());
    }

    #[test]
    fn debug_shows_name() {
        assert_eq!(format!("{:?}", Loc::new("x")), "Loc(\"x\")");
        assert_eq!(format!("{:?}", Reg::new("r0")), "Reg(\"r0\")");
        assert_eq!(format!("{:?}", Sym::new("hb")), "Sym(\"hb\")");
    }

    #[test]
    fn sym_interning_and_count() {
        let a = Sym::new("zz_sym_test_a");
        let b = Sym::new(String::from("zz_sym_test_a"));
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.as_str(), "zz_sym_test_a");
        assert_eq!(a.to_string(), "zz_sym_test_a");
        assert_ne!(a, Sym::new("zz_sym_test_b"));
        assert!(sym_count() > a.index());
        // Ordering is textual regardless of interning order.
        let late_b = Sym::new("zz_sym_order_b");
        let late_a = Sym::new("zz_sym_order_a");
        assert!(late_a < late_b);
    }

    /// Threads intern overlapping name sets at the same time, each through
    /// its own memo: every thread must get the same id for the same name,
    /// distinct names distinct ids, and the spelling back.
    #[test]
    fn concurrent_interning_agrees_across_threads() {
        let names = |t: usize| -> Vec<String> {
            (0..48)
                .map(|i| format!("zz_conc_{}", (i * 7 + t * 5) % 64))
                .collect()
        };
        let start = std::sync::Barrier::new(8);
        let results: Vec<Vec<(String, u32, u32, u32)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        // Twice per name: the second lookup hits the memo.
                        (0..2)
                            .flat_map(|_| names(t))
                            .map(|n| {
                                let (l, r, y) = (Loc::new(&n), Reg::new(&n), Sym::new(&n));
                                assert_eq!(l.as_str(), n);
                                assert_eq!(r.name(), n);
                                assert_eq!(y.as_str(), n);
                                (n, l.id(), r.id(), y.id())
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut ids: HashMap<String, (u32, u32, u32)> = HashMap::new();
        for (n, l, r, y) in results.into_iter().flatten() {
            let seen = *ids.entry(n.clone()).or_insert((l, r, y));
            assert_eq!(seen, (l, r, y), "{n}: ids differ between threads");
        }
        // And the main thread (a fresh memo) agrees with the workers.
        for (n, &(l, r, y)) in &ids {
            assert_eq!(
                (Loc::new(n).id(), Reg::new(n).id(), Sym::new(n).id()),
                (l, r, y)
            );
        }
        for kind in 0..3 {
            let mut distinct: Vec<u32> = ids.values().map(|&(l, r, y)| [l, r, y][kind]).collect();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), ids.len(), "distinct names share an id");
        }
    }
}

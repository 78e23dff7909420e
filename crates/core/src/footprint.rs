//! A memory ledger: what a [`Marketplace`] holds on the heap, line by line.
//!
//! [`Marketplace::footprint`] walks the market, its keyword books and each
//! book's [`AuctionEngine`](crate::AuctionEngine), and enters every buffer
//! it finds under one [`Component`]. Each line carries the bytes in use
//! (lengths), the bytes reserved (capacities) and the allocation count
//! ([`HeapUse`]). What several owners share is entered once: a targeting
//! matcher held through an `Arc`, by pointer, and the click rows, which the
//! market stores in one table and its engines name by id. The walk runs
//! only when asked for: serving pays nothing for the ledger.
//!
//! Not counted: allocator overhead, what a bidding program holds beyond its
//! own record (a SQL program's database is inside the one
//! [`Component::Programs`] line, opaque), the rows of a held or fixed bid
//! table, a targeting matcher's compiled code, a dense solver's scratch and
//! an attached journal's buffers.
//!
//! Which lines move resident memory depends on when they are allocated, not
//! only on their size. A buffer allocated while the market is being built
//! raises the build's heap high-water mark, and a large vector's untouched
//! capacity is never resident; a buffer first allocated at the first
//! auction may land in memory a program freed before, and add nothing.
//!
//! [`Marketplace`]: crate::Marketplace
//! [`Marketplace::footprint`]: crate::Marketplace::footprint

pub use ssa_matching::HeapUse;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One line of a [`Ledger`]: a kind of state a market holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// The engines' bidder vectors: one record per campaign.
    CampaignRecords,
    /// The boxed part of the campaigns a record does not hold inline:
    /// programs, targeted campaigns, fixed tables, and per-click campaigns
    /// with an ROI target or an amount past `u32::MAX` cents.
    BoxedCampaigns,
    /// Bidding programs' own records; what they hold beyond that is not
    /// visible from the market.
    Programs,
    /// Click-probability rows: the market's one table, each row stored
    /// once however many campaigns name it, and the configured default
    /// row as supplied.
    ClickRows,
    /// 4-byte ids of click rows: one per campaign in its engine's click
    /// model, and one per advertiser for the row it registered last.
    ClickRowIds,
    /// The purchase models' per-campaign row index.
    PurchaseIndex,
    /// The purchase models' per-slot probabilities, and the market's
    /// default row.
    PurchaseRows,
    /// The per-slot retained orders the default engine solves from.
    RetainedOrder,
    /// Winner determination's scratch: the reduced graph and its
    /// candidates, or a dense engine's revenue matrix.
    Solver,
    /// Each engine's no-slot value per campaign.
    NoSlotBase,
    /// The rest of the per-auction scratch: changed rows, seats, outcomes,
    /// charges and prices.
    BatchScratch,
    /// Where each engine finds each row's table, and its every-auction and
    /// program lists.
    RowLists,
    /// The tables an engine holds for every-auction rows and for written
    /// rows until the next auction.
    HeldTables,
    /// The keyword books themselves, with their RNG streams, and each
    /// keyword's boxed engine.
    KeywordBooks,
    /// Advertiser names.
    AdvertiserNames,
    /// Interned targeting matchers and the texts they are interned by.
    TargetingMatchers,
}

impl Component {
    /// Every component, in ledger order.
    pub const ALL: [Component; 16] = [
        Component::CampaignRecords,
        Component::BoxedCampaigns,
        Component::Programs,
        Component::ClickRows,
        Component::ClickRowIds,
        Component::PurchaseIndex,
        Component::PurchaseRows,
        Component::RetainedOrder,
        Component::Solver,
        Component::NoSlotBase,
        Component::BatchScratch,
        Component::RowLists,
        Component::HeldTables,
        Component::KeywordBooks,
        Component::AdvertiserNames,
        Component::TargetingMatchers,
    ];

    /// The line's name, as `reproduce --footprint` prints it.
    pub fn name(self) -> &'static str {
        match self {
            Component::CampaignRecords => "campaign records",
            Component::BoxedCampaigns => "boxed campaigns",
            Component::Programs => "programs",
            Component::ClickRows => "click rows",
            Component::ClickRowIds => "click row ids",
            Component::PurchaseIndex => "purchase index",
            Component::PurchaseRows => "purchase rows",
            Component::RetainedOrder => "retained order",
            Component::Solver => "solver scratch",
            Component::NoSlotBase => "no-slot base values",
            Component::BatchScratch => "batch scratch",
            Component::RowLists => "row lists",
            Component::HeldTables => "held and written tables",
            Component::KeywordBooks => "keyword books",
            Component::AdvertiserNames => "advertiser names",
            Component::TargetingMatchers => "targeting matchers",
        }
    }
}

/// What a market holds on the heap, by [`Component`]; see the
/// [module docs](self).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    heap: [HeapUse; Component::ALL.len()],
}

impl Ledger {
    /// One line.
    pub fn get(&self, component: Component) -> HeapUse {
        self.heap[component as usize]
    }

    /// Every line, in ledger order.
    pub fn lines(&self) -> impl Iterator<Item = (Component, HeapUse)> + '_ {
        Component::ALL.into_iter().map(|c| (c, self.get(c)))
    }

    /// Every line, the most bytes in use first (ties in ledger order).
    pub fn largest_first(&self) -> Vec<(Component, HeapUse)> {
        let mut lines: Vec<_> = self.lines().collect();
        lines.sort_by_key(|(_, heap)| std::cmp::Reverse(heap.in_use));
        lines
    }

    /// The sum of every line.
    pub fn total(&self) -> HeapUse {
        self.heap.iter().copied().sum()
    }
}

/// Builds a [`Ledger`] in one walk, entering each shared allocation once.
#[derive(Default)]
pub(crate) struct Accountant {
    ledger: Ledger,
    /// Addresses of the shared allocations entered so far.
    seen: HashSet<usize>,
}

/// The strong and weak counts in front of an `Arc`'s value.
const ARC_HEADER: usize = 2 * std::mem::size_of::<usize>();

impl Accountant {
    pub(crate) fn add(&mut self, component: Component, heap: HeapUse) {
        self.ledger.heap[component as usize] += heap;
    }

    /// Enters `shared` — its counts, its value and what `beyond` says the
    /// value holds — unless an earlier owner did.
    pub(crate) fn add_shared<T: ?Sized>(
        &mut self,
        component: Component,
        shared: &Arc<T>,
        beyond: impl FnOnce(&T) -> HeapUse,
    ) {
        if self.seen.insert(Arc::as_ptr(shared).cast::<()>() as usize) {
            let own = HeapUse::of_bytes(ARC_HEADER + std::mem::size_of_val(&**shared));
            self.add(component, own + beyond(shared));
        }
    }

    pub(crate) fn finish(self) -> Ledger {
        self.ledger
    }
}

/// A string's buffer.
pub(crate) fn of_string(text: &String) -> HeapUse {
    HeapUse {
        in_use: text.len(),
        reserved: text.capacity(),
        allocations: usize::from(text.capacity() > 0),
    }
}

/// A hash map's table, estimated from its capacity: one entry and one
/// control byte per slot. What the entries point to is not included.
pub(crate) fn of_map<K, V>(map: &HashMap<K, V>) -> HeapUse {
    let slot = std::mem::size_of::<(K, V)>() + 1;
    HeapUse {
        in_use: map.len() * slot,
        reserved: map.capacity() * slot,
        allocations: usize::from(map.capacity() > 0),
    }
}

//! [`HeapUse`]: what a component holds on the heap, for memory ledgers.

use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// Heap bytes a component holds: what its buffers use (their lengths),
/// what they reserve (their capacities), and how many allocations they
/// are. Allocator overhead is not counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapUse {
    /// Bytes of live elements.
    pub in_use: usize,
    /// Bytes allocated, spare capacity included.
    pub reserved: usize,
    /// Allocations.
    pub allocations: usize,
}

impl HeapUse {
    /// A vector's buffer; none if it has not allocated.
    pub fn of_vec<T>(vec: &Vec<T>) -> Self {
        let size = std::mem::size_of::<T>();
        HeapUse {
            in_use: vec.len() * size,
            reserved: vec.capacity() * size,
            allocations: usize::from(vec.capacity() * size > 0),
        }
    }

    /// One allocation of `bytes`, all of them in use.
    pub fn of_bytes(bytes: usize) -> Self {
        HeapUse {
            in_use: bytes,
            reserved: bytes,
            allocations: usize::from(bytes > 0),
        }
    }
}

impl Add for HeapUse {
    type Output = HeapUse;

    fn add(self, other: HeapUse) -> HeapUse {
        HeapUse {
            in_use: self.in_use + other.in_use,
            reserved: self.reserved + other.reserved,
            allocations: self.allocations + other.allocations,
        }
    }
}

impl AddAssign for HeapUse {
    fn add_assign(&mut self, other: HeapUse) {
        *self = *self + other;
    }
}

impl Sum for HeapUse {
    fn sum<I: Iterator<Item = HeapUse>>(iter: I) -> HeapUse {
        iter.fold(HeapUse::default(), Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_vector_counts_its_length_and_capacity() {
        let mut vec: Vec<u32> = Vec::with_capacity(8);
        vec.extend([1, 2, 3]);
        let heap = HeapUse::of_vec(&vec);
        assert_eq!((heap.in_use, heap.reserved, heap.allocations), (12, 32, 1));
        assert_eq!(HeapUse::of_vec(&Vec::<u32>::new()), HeapUse::default());
        assert_eq!(
            heap + HeapUse::of_bytes(4),
            [heap, HeapUse::of_bytes(4)].into_iter().sum()
        );
    }
}

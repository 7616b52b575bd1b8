//! The one sift every heap in this crate uses.
//!
//! All three procedures work on a slice laid out as an implicit binary tree
//! (children of `i` at `2i + 1` and `2i + 2`) under a `before` predicate:
//! `before(a, b)` is `true` when `a` must sit closer to the root than `b`.
//! Instead of swapping neighbours level by level they lift one element out
//! of the slice, leaving a *hole*, move the hole by copying one element per
//! level, and write the lifted element back once at its final position.
//!
//! [`sift_down_to_bottom`] is the bottom-up variant (Floyd; Wegener's
//! bottom-up heapsort): the hole first falls to a leaf along the preferred
//! child, one comparison per level, and the lifted element then climbs back
//! up. A record that replaces the root usually belongs near the leaves, so
//! this costs about `log n` comparisons where the classic sift-down costs
//! `2 log n`.

use std::mem::ManuallyDrop;
use std::ptr;

/// A slice with one element lifted out.
///
/// The slot at `pos` is logically empty: its bytes are a stale copy of
/// `elt`. Dropping the hole writes `elt` back into that slot, so the slice
/// is whole again even when a `before` call panics mid-sift.
struct Hole<'a, T> {
    data: &'a mut [T],
    elt: ManuallyDrop<T>,
    pos: usize,
}

impl<'a, T> Hole<'a, T> {
    /// Lifts `data[pos]` out of the slice. Panics if `pos` is out of bounds.
    fn new(data: &'a mut [T], pos: usize) -> Self {
        // SAFETY: `&data[pos]` is bounds-checked and valid for reads; the
        // value is owned by the hole from here on, and `Drop` writes it back
        // to a valid slot exactly once.
        let elt = unsafe { ptr::read(&data[pos]) };
        Hole {
            data,
            elt: ManuallyDrop::new(elt),
            pos,
        }
    }

    #[inline]
    fn pos(&self) -> usize {
        self.pos
    }

    /// The lifted element.
    #[inline]
    fn element(&self) -> &T {
        &self.elt
    }

    /// The element at `index`, which must not be the hole itself.
    #[inline]
    fn get(&self, index: usize) -> &T {
        debug_assert!(index != self.pos);
        &self.data[index]
    }

    /// Moves the hole to `index`, copying the element there into the old
    /// hole. Panics if `index` is out of bounds or is the hole itself.
    #[inline]
    fn move_to(&mut self, index: usize) {
        assert!(index < self.data.len() && index != self.pos);
        let base = self.data.as_mut_ptr();
        // SAFETY: `index` (checked above) and `pos` (an invariant) are
        // distinct in-bounds slots of the same slice, so the copy is valid
        // and non-overlapping. The element at `index` is now owned by slot
        // `pos`; slot `index` becomes the hole.
        unsafe { ptr::copy_nonoverlapping(base.add(index), base.add(self.pos), 1) };
        self.pos = index;
    }
}

impl<T> Drop for Hole<'_, T> {
    #[inline]
    fn drop(&mut self) {
        // SAFETY: `pos` is an in-bounds slot whose bytes are a stale copy
        // (see `move_to`), so overwriting it without dropping is correct,
        // and `elt` is never used again.
        unsafe {
            let dst = self.data.as_mut_ptr().add(self.pos);
            ptr::copy_nonoverlapping(&*self.elt, dst, 1);
        }
    }
}

/// Moves `data[pos]` up towards `start` while it orders before its parent.
/// Returns its final index.
pub(crate) fn sift_up<T>(
    data: &mut [T],
    start: usize,
    pos: usize,
    before: &mut impl FnMut(&T, &T) -> bool,
) -> usize {
    let mut hole = Hole::new(data, pos);
    while hole.pos() > start {
        let parent = (hole.pos() - 1) / 2;
        if !before(hole.element(), hole.get(parent)) {
            break;
        }
        hole.move_to(parent);
    }
    hole.pos()
}

/// Classic sift-down of `data[pos]` within `data[..end]`: at each level the
/// element is compared with its preferred child and stops as soon as no
/// child orders before it. Used by heapify, where most elements stop early.
pub(crate) fn sift_down_range<T>(
    data: &mut [T],
    pos: usize,
    end: usize,
    before: &mut impl FnMut(&T, &T) -> bool,
) {
    let mut hole = Hole::new(&mut data[..end], pos);
    let mut child = 2 * pos + 1;
    // Loop while both children exist.
    while child + 1 < end {
        child += usize::from(!before(hole.get(child), hole.get(child + 1)));
        if !before(hole.get(child), hole.element()) {
            return;
        }
        hole.move_to(child);
        child = 2 * hole.pos() + 1;
    }
    if child + 1 == end && before(hole.get(child), hole.element()) {
        hole.move_to(child);
    }
}

/// Bottom-up sift of `data[pos]` within `data[..end]`: the hole falls to a
/// leaf along the preferred child without looking at the lifted element,
/// then the element climbs back up to where it belongs.
pub(crate) fn sift_down_to_bottom<T>(
    data: &mut [T],
    pos: usize,
    end: usize,
    before: &mut impl FnMut(&T, &T) -> bool,
) {
    let data = &mut data[..end];
    let leaf = {
        let mut hole = Hole::new(data, pos);
        let mut child = 2 * pos + 1;
        while child + 1 < end {
            child += usize::from(!before(hole.get(child), hole.get(child + 1)));
            hole.move_to(child);
            child = 2 * hole.pos() + 1;
        }
        if child + 1 == end {
            hole.move_to(child);
        }
        hole.pos()
    };
    sift_up(data, pos, leaf, before);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_comparison_leaves_every_element_in_place() {
        let mut data: Vec<String> = ["a", "c", "b", "e", "d"].map(String::from).to_vec();
        data[0] = "z".into();
        let mut calls = 0;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sift_down_to_bottom(&mut data, 0, 5, &mut |a: &String, b: &String| {
                calls += 1;
                assert!(calls < 2, "comparison failed");
                a < b
            });
        }));
        assert!(result.is_err());
        let mut sorted = data.clone();
        sorted.sort();
        assert_eq!(sorted, ["b", "c", "d", "e", "z"]);
    }
}

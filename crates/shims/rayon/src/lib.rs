//! Offline `rayon` shim.
//!
//! Maps the `par_iter` family onto plain sequential std iterators, so
//! every downstream combinator (`map`, `flat_map`, `zip`, `sum`,
//! `collect`, …) is the std one. Semantics are identical to rayon for
//! the side-effect-free pipelines this workspace builds; only wall-clock
//! parallelism is given up, which the analytic simulator does not need.

pub mod prelude {
    //! Drop-in replacement for `rayon::prelude::*`.

    /// `.into_par_iter()` on owned collections and ranges.
    pub trait IntoParallelIterator: IntoIterator + Sized {
        /// Sequential stand-in for rayon's parallel consumption.
        fn into_par_iter(self) -> Self::IntoIter {
            self.into_iter()
        }
    }
    impl<T: IntoIterator + Sized> IntoParallelIterator for T {}

    /// `.par_iter()` on collections iterable by shared reference.
    pub trait IntoParallelRefIterator<'data> {
        /// The sequential iterator type.
        type Iter: Iterator;
        /// Sequential stand-in for `par_iter`.
        fn par_iter(&'data self) -> Self::Iter;
    }
    impl<'data, C: ?Sized + 'data> IntoParallelRefIterator<'data> for C
    where
        &'data C: IntoIterator,
    {
        type Iter = <&'data C as IntoIterator>::IntoIter;
        fn par_iter(&'data self) -> Self::Iter {
            self.into_iter()
        }
    }

    /// `.par_iter_mut()` on collections iterable by unique reference.
    pub trait IntoParallelRefMutIterator<'data> {
        /// The sequential iterator type.
        type Iter: Iterator;
        /// Sequential stand-in for `par_iter_mut`.
        fn par_iter_mut(&'data mut self) -> Self::Iter;
    }
    impl<'data, C: ?Sized + 'data> IntoParallelRefMutIterator<'data> for C
    where
        &'data mut C: IntoIterator,
    {
        type Iter = <&'data mut C as IntoIterator>::IntoIter;
        fn par_iter_mut(&'data mut self) -> Self::Iter {
            self.into_iter()
        }
    }

    /// `.par_chunks_mut()` on slices.
    pub trait ParallelSliceMut<T> {
        /// Sequential stand-in for `par_chunks_mut`.
        fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T>;
    }
    impl<T> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T> {
            self.chunks_mut(chunk_size)
        }
    }

    /// `.par_chunks()` on slices.
    pub trait ParallelSlice<T> {
        /// Sequential stand-in for `par_chunks`.
        fn par_chunks(&self, chunk_size: usize) -> std::slice::Chunks<'_, T>;
    }
    impl<T> ParallelSlice<T> for [T] {
        fn par_chunks(&self, chunk_size: usize) -> std::slice::Chunks<'_, T> {
            self.chunks(chunk_size)
        }
    }
}

/// Sequential stand-in for `rayon::join`.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB,
{
    (a(), b())
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_iter_matches_iter() {
        let v = vec![1, 2, 3, 4];
        let doubled: Vec<i32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
        let sum: i32 = (0..5).into_par_iter().sum();
        assert_eq!(sum, 10);
    }

    #[test]
    fn par_iter_mut_and_chunks() {
        let mut v = vec![1, 2, 3, 4];
        v.par_iter_mut().for_each(|x| *x += 1);
        assert_eq!(v, vec![2, 3, 4, 5]);
        let mut w = [0u32; 6];
        for (i, chunk) in w.par_chunks_mut(2).enumerate() {
            chunk.fill(i as u32);
        }
        assert_eq!(w, [0, 0, 1, 1, 2, 2]);
    }
}

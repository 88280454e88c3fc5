//! Size classes.
//!
//! Classes from 16 bytes to 32 KiB: powers of two below 256 bytes, then
//! multiples of 256 bytes (jemalloc-style spacing) so that every class
//! of at least one media block stays 256-byte aligned — the alignment
//! the evaluated indexes want for their nodes. Index nodes are at most
//! a few KiB, so this range is sufficient; anything larger is an error
//! rather than a silent fallback.

/// Block sizes of each class, in bytes.
pub const CLASS_SIZES: [usize; 17] = [
    16, 32, 64, 128, 256, 512, 768, 1024, 1280, 1536, 2048, 2560, 3072, 4096, 8192, 16384, 32768,
];

/// Number of size classes.
pub const NUM_CLASSES: usize = CLASS_SIZES.len();

/// Smallest class covering `size`, or `None` if too large.
#[inline]
pub fn class_for_size(size: usize) -> Option<usize> {
    CLASS_SIZES.iter().position(|&c| c >= size)
}

/// Block size of class `class`.
#[inline]
pub fn class_size(class: usize) -> usize {
    CLASS_SIZES[class]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_selection() {
        assert_eq!(class_for_size(1), Some(0));
        assert_eq!(class_for_size(16), Some(0));
        assert_eq!(class_for_size(17), Some(1));
        assert_eq!(class_for_size(256), Some(4));
        assert_eq!(class_for_size(257), Some(5));
        assert_eq!(class_for_size(1120), Some(8)); // FPTree 64-entry leaf
        assert_eq!(class_for_size(32768), Some(16));
        assert_eq!(class_for_size(32769), None);
    }

    #[test]
    fn classes_are_sorted_and_aligned() {
        for w in CLASS_SIZES.windows(2) {
            assert!(w[0] < w[1]);
        }
        for &c in &CLASS_SIZES {
            // Below a media block: power of two (divides 256 evenly).
            // At or above: multiple of 256 so blocks stay 256-aligned.
            if c < 256 {
                assert!(c.is_power_of_two());
            } else {
                assert_eq!(c % 256, 0);
            }
        }
    }
}

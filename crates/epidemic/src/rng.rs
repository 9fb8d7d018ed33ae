//! Deterministic random-number generation for the epidemic engines.
//!
//! A *counter-based* generator built on the splitmix64 finalizer: every
//! value is a pure hash of `(seed, domain, counter)` ([`draw`]). Because
//! a draw does not depend on any evolving generator state, shards of the
//! parallel community engine can consume draws in any order (or on any
//! thread) and still agree bit-for-bit with the serial engine. This is
//! the keystone of the deterministic-merge design. It replaces the
//! external `rand` crate (the offline build cannot fetch it) with a
//! small, fully specified generator, so results are reproducible across
//! toolchains.

/// splitmix64 finalizer: avalanche a 64-bit value.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A counter-based draw: a pure function of `(seed, domain, counter)`.
///
/// `domain` separates independent uses of the same logical counter
/// (e.g. "target choice" vs "success roll" for the same infection
/// attempt) so they never alias.
#[inline]
pub fn draw(seed: u64, domain: u64, counter: u64) -> u64 {
    // Two rounds of mixing over an injective combination of the inputs.
    mix(mix(seed ^ domain.rotate_left(24))
        .wrapping_add(counter.wrapping_mul(0xd134_2543_de82_ef95)))
}

/// A counter-based uniform draw in `[0, 1)`.
#[inline]
pub fn draw_unit(seed: u64, domain: u64, counter: u64) -> f64 {
    to_unit(draw(seed, domain, counter))
}

/// A counter-based uniform draw in `[0, n)`; `n` must be nonzero.
#[inline]
pub fn draw_below(seed: u64, domain: u64, counter: u64, n: u64) -> u64 {
    draw(seed, domain, counter) % n
}

/// Map a 64-bit value to `[0, 1)` using the top 53 bits.
#[inline]
pub fn to_unit(v: u64) -> f64 {
    (v >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_is_order_independent() {
        // The whole point: counter-based draws don't care who asks first.
        let forward: Vec<u64> = (0..16).map(|c| draw(9, 1, c)).collect();
        let backward: Vec<u64> = (0..16).rev().map(|c| draw(9, 1, c)).collect();
        let reversed: Vec<u64> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed);
    }

    #[test]
    fn draw_domains_do_not_alias() {
        assert_ne!(draw(5, 0, 3), draw(5, 1, 3));
        assert_ne!(draw(5, 0, 3), draw(6, 0, 3));
    }

    #[test]
    fn unit_values_are_in_range_and_spread() {
        let mut acc = 0.0;
        for i in 0..1000 {
            let u = draw_unit(3, 2, i);
            assert!((0.0..1.0).contains(&u));
            acc += u;
        }
        let mean = acc / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }
}

//! IEEE binary16 conversion helpers.
//!
//! The simulator stores all values as `f32` but must reproduce the rounding
//! behaviour of half-precision hardware. These routines implement the
//! standard round-to-nearest-even f32 ↔ f16 conversions by bit
//! manipulation, with no dependency on nightly `f16` support.

/// Convert an `f32` to IEEE binary16 bits, rounding to nearest-even.
///
/// Overflow saturates to infinity; NaN payloads collapse to a quiet NaN.
#[inline]
pub fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf or NaN.
        return if mant == 0 {
            sign | 0x7c00
        } else {
            sign | 0x7e00 // quiet NaN
        };
    }

    // Re-bias from f32 (127) to f16 (15).
    let unbiased = exp - 127;
    if unbiased > 15 {
        // Overflow -> infinity.
        return sign | 0x7c00;
    }
    if unbiased >= -14 {
        // Normal f16. Keep 10 mantissa bits, round to nearest even.
        let half_exp = ((unbiased + 15) as u32) << 10;
        let shifted = mant >> 13;
        let round_bits = mant & 0x1fff;
        let mut result = sign as u32 | half_exp | shifted;
        if round_bits > 0x1000 || (round_bits == 0x1000 && (shifted & 1) == 1) {
            result += 1; // may carry into exponent, which is still correct
        }
        return result as u16;
    }
    if unbiased >= -25 {
        // Subnormal f16: target mantissa = value * 2^24 = full_mant >> shift.
        let full_mant = mant | 0x0080_0000; // implicit leading one
        let shift = (-unbiased - 1) as u32; // 14..=24 for unbiased -15..=-25
        let shifted = full_mant >> shift;
        let round_bit = 1u32 << (shift - 1);
        let rem = full_mant & ((1u32 << shift) - 1);
        let mut result = sign as u32 | shifted;
        if rem > round_bit || (rem == round_bit && (shifted & 1) == 1) {
            result += 1;
        }
        return result as u16;
    }
    // Underflow to signed zero.
    sign
}

/// Convert IEEE binary16 bits to an `f32`.
#[inline]
pub fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits >> 10) & 0x1f) as u32;
    let mant = (bits & 0x3ff) as u32;

    let out = if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // Subnormal: normalize.
            let mut mant = mant;
            let mut exp = -14i32;
            while mant & 0x400 == 0 {
                mant <<= 1;
                exp -= 1;
            }
            mant &= 0x3ff;
            sign | (((exp + 127) as u32) << 23) | (mant << 13)
        }
    } else if exp == 0x1f {
        sign | 0x7f80_0000 | (mant << 13)
    } else {
        sign | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(out)
}

/// Round an `f32` through binary16 precision (the value a half-precision
/// register would hold).
///
/// ```
/// use insum_tensor::f16_round;
/// assert_eq!(f16_round(1.0), 1.0);
/// // 0.1 is not representable in binary16:
/// assert_ne!(f16_round(0.1), 0.1);
/// assert!((f16_round(0.1) - 0.1).abs() < 1e-4);
/// ```
#[inline]
pub fn f16_round(value: f32) -> f32 {
    if in_fast_range(value.to_bits()) {
        return round_fast(value);
    }
    f16_bits_to_f32(f32_to_f16_bits(value))
}

/// Whether `f16_round`'s one-add formula applies: results that land on
/// normal f16 values (|v| in [2^-14, 65520); 65520 is the smallest
/// magnitude that rounds to f16 infinity). Two compares and an `&`, no
/// branch, so a fold over a chunk vectorizes (`Range::contains` would
/// spell the same test with a short-circuiting `&&`).
#[allow(clippy::manual_range_contains)]
#[inline(always)]
fn in_fast_range(bits: u32) -> bool {
    let absbits = bits & 0x7fff_ffff;
    (absbits >= 0x3880_0000) & (absbits < 0x477f_f000)
}

/// The fast path of [`f16_round`]: rounding the f32 mantissa to 10 bits
/// half-to-even is one integer add — a carry correctly propagates into
/// the exponent — so no bit unpacking/repacking round trip is needed.
/// `tests::fast_path_matches_bit_conversion` checks equivalence against
/// the full conversion.
#[inline(always)]
fn round_fast(value: f32) -> f32 {
    let bits = value.to_bits();
    let round = 0x0fff + ((bits >> 13) & 1);
    f32::from_bits(bits.wrapping_add(round) & !0x1fff)
}

/// Lanes per chunk of [`f16_round_slice`].
const CHUNK: usize = 16;

/// Round every element of `values` through binary16 in place: the bits
/// of `f16_round` on each element, computed in chunks of 16 lanes.
/// A chunk whose every lane lies in `f16_round`'s fast range applies the
/// one-add formula to all of them with no branch, so it compiles to
/// vector integer adds and masks at whatever width the caller is built
/// for; any other chunk (±0, f16 subnormals, overflow, ±Inf, NaN) and
/// the tail shorter than a chunk run `f16_round` lane by lane. Same
/// formula, same fallback: the bits cannot differ.
///
/// Always inlined, so a caller compiled with wider vector features
/// (the simulator's value bodies) rounds at its own width.
///
/// ```
/// use insum_tensor::{f16_round, f16_round_slice};
/// let mut v = [0.1f32, 1.0, -0.0, f32::INFINITY, 70000.0];
/// let want = v.map(f16_round);
/// f16_round_slice(&mut v);
/// assert_eq!(v.map(f32::to_bits), want.map(f32::to_bits));
/// ```
#[inline(always)]
pub fn f16_round_slice(values: &mut [f32]) {
    let mut chunks = values.chunks_exact_mut(CHUNK);
    for chunk in &mut chunks {
        let fast = chunk
            .iter()
            .fold(true, |ok, v| ok & in_fast_range(v.to_bits()));
        if fast {
            chunk.iter_mut().for_each(|v| *v = round_fast(*v));
        } else {
            chunk.iter_mut().for_each(|v| *v = f16_round(*v));
        }
    }
    chunks
        .into_remainder()
        .iter_mut()
        .for_each(|v| *v = f16_round(*v));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_path_matches_bit_conversion() {
        // Sweep a dense sample of the fast-path range (and its edges)
        // and compare against the reference double conversion.
        let probe = |v: f32| {
            let want = f16_bits_to_f32(f32_to_f16_bits(v));
            let got = f16_round(v);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "f16_round({v}) = {got} != {want}"
            );
        };
        let mut bits: u32 = 0x3800_0000; // below the normal-f16 cutoff
        while bits < 0x4790_0000 {
            // above the overflow cutoff
            probe(f32::from_bits(bits));
            probe(-f32::from_bits(bits));
            bits += 0x101; // dense, misaligned stride hits all rounding cases
        }
        for v in [
            0.0f32,
            -0.0,
            1e-8,
            65504.0,
            65519.9,
            65520.0,
            1e9,
            f32::INFINITY,
        ] {
            probe(v);
            probe(-v);
        }
    }

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -2048..=2048 {
            let x = i as f32;
            assert_eq!(f16_round(x), x, "integer {i} should be exact in f16");
        }
    }

    #[test]
    fn powers_of_two_roundtrip() {
        for e in -14..=15 {
            let x = (2.0f32).powi(e);
            assert_eq!(f16_round(x), x);
        }
    }

    #[test]
    fn overflow_saturates_to_inf() {
        assert!(f16_round(1.0e6).is_infinite());
        assert!(f16_round(-1.0e6).is_infinite());
        assert!(f16_round(-1.0e6) < 0.0);
        // Largest finite f16 is 65504.
        assert_eq!(f16_round(65504.0), 65504.0);
        assert!(f16_round(65536.0).is_infinite());
    }

    #[test]
    fn underflow_to_zero() {
        assert_eq!(f16_round(1e-9), 0.0);
        assert_eq!(f16_round(-1e-9), -0.0);
        assert!(f16_round(-1e-9).is_sign_negative());
    }

    #[test]
    fn subnormals() {
        // Smallest positive subnormal f16 = 2^-24.
        let tiny = (2.0f32).powi(-24);
        assert_eq!(f16_round(tiny), tiny);
        // Half of it rounds to zero (ties-to-even).
        assert_eq!(f16_round(tiny / 2.0), 0.0);
        // 0.75 of it rounds up to tiny.
        assert_eq!(f16_round(tiny * 0.75), tiny);
    }

    #[test]
    fn nan_propagates() {
        assert!(f16_round(f32::NAN).is_nan());
    }

    #[test]
    fn inf_propagates() {
        assert_eq!(f16_round(f32::INFINITY), f32::INFINITY);
        assert_eq!(f16_round(f32::NEG_INFINITY), f32::NEG_INFINITY);
    }

    #[test]
    fn rounding_is_nearest_even() {
        // 1.0 + 2^-11 is exactly halfway between 1.0 and the next f16
        // (1.0 + 2^-10); ties-to-even keeps 1.0.
        let halfway = 1.0 + (2.0f32).powi(-11);
        assert_eq!(f16_round(halfway), 1.0);
        // Slightly above halfway rounds up.
        let above = 1.0 + (2.0f32).powi(-11) + (2.0f32).powi(-16);
        assert_eq!(f16_round(above), 1.0 + (2.0f32).powi(-10));
    }

    #[test]
    fn idempotent() {
        for &x in &[0.1f32, 3.25159, -2.91828, 1234.5678, 6.1e-5, 4.2e-7] {
            let once = f16_round(x);
            assert_eq!(
                f16_round(once),
                once,
                "f16_round must be idempotent for {x}"
            );
        }
    }

    /// `f16_round_slice` against `f16_round` lane by lane, bit for bit.
    fn assert_slice_rounds_like_scalar(values: &[f32]) {
        let want: Vec<u32> = values.iter().map(|&v| f16_round(v).to_bits()).collect();
        let mut got = values.to_vec();
        f16_round_slice(&mut got);
        let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            got,
            want,
            "input bits {:x?}",
            values.iter().map(|v| v.to_bits())
        );
    }

    /// One special among fast-range values, and a second one three lanes
    /// on, at every lane of slices of 0..=48 elements: every chunk offset
    /// of a fallback chunk, every tail length, chunks that are all fast.
    #[test]
    fn slice_rounding_mixes_specials_inside_a_chunk() {
        let positive = [
            0.0f32,
            2f32.powi(-14),
            2f32.powi(-24),
            2f32.powi(-25),
            65504.0,
            65519.0,
            65520.0,
            f32::INFINITY,
            f32::from_bits(0x7fc0_0001), // quiet NaN, payload
            f32::from_bits(0x7f80_0001), // signalling NaN, payload
            f32::from_bits(0x7fa5_5aa5), // signalling NaN, payload
        ];
        let specials: Vec<f32> = positive.iter().flat_map(|&v| [v, -v]).collect();
        // |v| in [0.25, 65.5]: all inside the fast range.
        let ordinary =
            |i: usize| (0.25 + i as f32 * 1.37) * if i.is_multiple_of(2) { 1.0 } else { -1.0 };
        for len in 0..=48 {
            let base: Vec<f32> = (0..len).map(ordinary).collect();
            assert_slice_rounds_like_scalar(&base);
            for (k, &special) in specials.iter().enumerate() {
                for at in 0..len {
                    let mut v = base.clone();
                    v[at] = special;
                    if at + 3 < len {
                        v[at + 3] = specials[(k + 7) % specials.len()];
                    }
                    assert_slice_rounds_like_scalar(&v);
                }
            }
        }
    }

    /// Every f32 bit pattern, in slices whose lengths cycle through
    /// 0..48 (every tail length 0..15 beside zero, one and two whole
    /// chunks) and whose starts drift, so each pattern is met at many
    /// lane offsets of its chunk. ≈ 20 s on two cores in release.
    #[test]
    #[ignore = "all 2^32 patterns: run with `cargo test --release -p insum_tensor -- --ignored`"]
    fn slice_rounding_equals_scalar_on_every_f32() {
        const BLOCK: u64 = 1 << 20;
        const BLOCKS: u64 = (1u64 << 32) / BLOCK;
        let workers = std::thread::available_parallelism().map_or(2, |n| n.get().min(4)) as u64;
        std::thread::scope(|scope| {
            for w in 0..workers {
                scope.spawn(move || {
                    let mut buf = vec![0f32; BLOCK as usize];
                    for b in (w..BLOCKS).step_by(workers as usize) {
                        let start = b * BLOCK;
                        for (i, v) in buf.iter_mut().enumerate() {
                            *v = f32::from_bits((start + i as u64) as u32);
                        }
                        let want: Vec<u32> = buf.iter().map(|&v| f16_round(v).to_bits()).collect();
                        let (mut at, mut k) = ((b % 16) as usize, 0usize);
                        f16_round_slice(&mut buf[..at]);
                        while at < buf.len() {
                            let len = (16 * (k % 3) + k % 16).min(buf.len() - at);
                            f16_round_slice(&mut buf[at..at + len]);
                            at += len;
                            k += 1;
                        }
                        for (i, (v, w)) in buf.iter().zip(&want).enumerate() {
                            assert_eq!(v.to_bits(), *w, "pattern {:#010x}", start + i as u64);
                        }
                    }
                });
            }
        });
    }
}

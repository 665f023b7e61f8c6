//! The [`Nat`] arbitrary-precision unsigned integer.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Rem, Shl, Shr, Sub, SubAssign};
use std::str::FromStr;

use rand::Rng;

/// Number of bits per limb.
const LIMB_BITS: usize = 64;

/// Multiplications with both operands above this limb count use Karatsuba.
const KARATSUBA_THRESHOLD: usize = 24;

/// An arbitrary-precision unsigned integer.
///
/// Stored as little-endian `u64` limbs with the invariant that the most
/// significant limb is non-zero (zero is the empty limb vector).
///
/// All arithmetic allocates; this type favours clarity and correctness
/// over squeezing the last cycles — the hot loops of the MPC protocol
/// run over the fixed 61-bit prime field in `yoso-field`, not here.
///
/// # Example
///
/// ```rust
/// use yoso_bignum::Nat;
///
/// let a: Nat = "340282366920938463463374607431768211456".parse()?; // 2^128
/// assert_eq!(a, Nat::from(1u64) << 128);
/// # Ok::<(), yoso_bignum::ParseNatError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Nat {
    /// Little-endian limbs; no trailing zero limbs.
    limbs: Vec<u64>,
}

/// Error returned when parsing a [`Nat`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNatError {
    kind: ParseNatErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseNatErrorKind {
    Empty,
    InvalidDigit(char),
}

impl fmt::Display for ParseNatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ParseNatErrorKind::Empty => write!(f, "cannot parse integer from empty string"),
            ParseNatErrorKind::InvalidDigit(c) => write!(f, "invalid digit found in string: {c:?}"),
        }
    }
}

impl std::error::Error for ParseNatError {}

impl Nat {
    /// The value zero.
    pub fn zero() -> Self {
        Nat { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        Nat { limbs: vec![1] }
    }

    /// Returns `true` if `self` is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if `self` is one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// Returns `true` if the value is odd.
    pub fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|l| l & 1 == 1)
    }

    /// Returns `true` if the value is even (zero is even).
    pub fn is_even(&self) -> bool {
        !self.is_odd()
    }

    /// Constructs a value from little-endian limbs, normalizing.
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Nat { limbs }
    }

    /// Borrows the little-endian limbs.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Number of significant bits (zero has zero bits).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * LIMB_BITS + (LIMB_BITS - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / LIMB_BITS;
        let off = i % LIMB_BITS;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Interprets the value as `u64`, if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Interprets the value as `u128`, if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | ((self.limbs[1] as u128) << 64)),
            _ => None,
        }
    }

    /// Big-endian byte encoding without leading zeros (zero encodes as empty).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let first_nonzero = out.iter().position(|&b| b != 0).unwrap_or(out.len());
        out.drain(..first_nonzero);
        out
    }

    /// Constructs a value from big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut buf = [0u8; 8];
            buf[8 - chunk.len()..].copy_from_slice(chunk);
            limbs.push(u64::from_be_bytes(buf));
        }
        Nat::from_limbs(limbs)
    }

    /// Checked subtraction: `self - rhs`, or `None` if `rhs > self`.
    pub fn checked_sub(&self, rhs: &Nat) -> Option<Nat> {
        if self < rhs {
            return None;
        }
        Some(self.sub_unchecked(rhs))
    }

    /// Subtraction whose `self >= rhs` precondition is the caller's
    /// responsibility. The O(limbs) comparison guarding
    /// [`Nat::checked_sub`] is only performed under `debug_assertions`
    /// — hot reduction loops (Montgomery REDC, Karatsuba's middle
    /// term) already know the invariant holds and call this directly.
    pub(crate) fn sub_unchecked(&self, rhs: &Nat) -> Nat {
        debug_assert!(self >= rhs, "sub_unchecked underflow");
        let mut out = self.limbs.clone();
        let mut borrow = 0u64;
        for (i, &r) in rhs.limbs.iter().enumerate() {
            let (d1, b1) = out[i].overflowing_sub(r);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        let mut i = rhs.limbs.len();
        while borrow != 0 {
            let (d, b) = out[i].overflowing_sub(borrow);
            out[i] = d;
            borrow = b as u64;
            i += 1;
        }
        Nat::from_limbs(out)
    }

    /// Quotient and remainder of `self / divisor`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &Nat) -> (Nat, Nat) {
        assert!(!divisor.is_zero(), "division by zero");
        match self.cmp(divisor) {
            Ordering::Less => return (Nat::zero(), self.clone()),
            Ordering::Equal => return (Nat::one(), Nat::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_limb(divisor.limbs[0]);
            return (q, Nat::from(r));
        }
        self.div_rem_knuth(divisor)
    }

    /// Quotient and remainder by a single limb.
    fn div_rem_limb(&self, d: u64) -> (Nat, u64) {
        debug_assert!(d != 0);
        let mut q = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        (Nat::from_limbs(q), rem as u64)
    }

    /// Knuth algorithm D long division (both operands multi-limb).
    fn div_rem_knuth(&self, divisor: &Nat) -> (Nat, Nat) {
        // Normalize so the top divisor limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let u = self.clone() << shift;
        let v = divisor.clone() << shift;
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        // Working copy of the dividend with one extra high limb.
        let mut un = u.limbs.clone();
        un.push(0);
        let vn = &v.limbs;
        let mut q = vec![0u64; m + 1];

        let v_top = vn[n - 1];
        let v_next = vn[n - 2];

        for j in (0..=m).rev() {
            // Estimate the quotient digit from the top limbs.
            let numerator = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = numerator / v_top as u128;
            let mut rhat = numerator % v_top as u128;
            while qhat >> 64 != 0
                || qhat * v_next as u128 > ((rhat << 64) | un[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += v_top as u128;
                if rhat >> 64 != 0 {
                    break;
                }
            }

            // Multiply-subtract qhat * v from un[j .. j+n+1].
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let sub = (un[j + i] as i128) - ((p & u64::MAX as u128) as i128) - borrow;
                un[j + i] = sub as u64;
                borrow = if sub < 0 { 1 } else { 0 };
            }
            let sub = (un[j + n] as i128) - (carry as i128) - borrow;
            un[j + n] = sub as u64;

            q[j] = qhat as u64;
            if sub < 0 {
                // Estimate was one too high: add v back.
                q[j] -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = un[j + i] as u128 + vn[i] as u128 + carry;
                    un[j + i] = s as u64;
                    carry = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u64);
            }
        }

        un.truncate(n);
        let rem = Nat::from_limbs(un) >> shift;
        (Nat::from_limbs(q), rem)
    }

    /// Uniformly random value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &Nat) -> Nat {
        assert!(!bound.is_zero(), "random_below: zero bound");
        let bits = bound.bit_len();
        let limbs = bits.div_ceil(LIMB_BITS);
        let top_mask = if bits.is_multiple_of(LIMB_BITS) {
            u64::MAX
        } else {
            (1u64 << (bits % LIMB_BITS)) - 1
        };
        // Rejection sampling; each trial succeeds with probability > 1/2.
        loop {
            let mut v = Vec::with_capacity(limbs);
            for _ in 0..limbs {
                v.push(rng.gen::<u64>());
            }
            *v.last_mut().unwrap() &= top_mask;
            let candidate = Nat::from_limbs(v);
            if &candidate < bound {
                return candidate;
            }
        }
    }

    /// Uniformly random value with exactly `bits` bits (top bit set).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Nat {
        assert!(bits > 0, "random_bits: zero width");
        let limbs = bits.div_ceil(LIMB_BITS);
        let mut v: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
        let top_bit = (bits - 1) % LIMB_BITS;
        let last = v.last_mut().unwrap();
        *last &= if top_bit == 63 { u64::MAX } else { (1u64 << (top_bit + 1)) - 1 };
        *last |= 1u64 << top_bit;
        Nat::from_limbs(v)
    }

    /// Schoolbook multiplication.
    fn mul_schoolbook(a: &[u64], b: &[u64]) -> Vec<u64> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &bj) in b.iter().enumerate() {
                let cur = out[i + j] as u128 + ai as u128 * bj as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut idx = i + b.len();
            while carry != 0 {
                let cur = out[idx] as u128 + carry;
                out[idx] = cur as u64;
                carry = cur >> 64;
                idx += 1;
            }
        }
        out
    }

    /// Karatsuba multiplication on limb slices.
    fn mul_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
        if a.len().min(b.len()) < KARATSUBA_THRESHOLD {
            return Self::mul_schoolbook(a, b);
        }
        let half = a.len().max(b.len()) / 2;
        let (a_lo, a_hi) = a.split_at(half.min(a.len()));
        let (b_lo, b_hi) = b.split_at(half.min(b.len()));
        let a_lo_n = Nat::from_limbs(a_lo.to_vec());
        let a_hi_n = Nat::from_limbs(a_hi.to_vec());
        let b_lo_n = Nat::from_limbs(b_lo.to_vec());
        let b_hi_n = Nat::from_limbs(b_hi.to_vec());

        let z0 = Nat::from_limbs(Self::mul_limbs(&a_lo_n.limbs, &b_lo_n.limbs));
        let z2 = Nat::from_limbs(Self::mul_limbs(&a_hi_n.limbs, &b_hi_n.limbs));
        let sa = &a_lo_n + &a_hi_n;
        let sb = &b_lo_n + &b_hi_n;
        let z1_full = Nat::from_limbs(Self::mul_limbs(&sa.limbs, &sb.limbs));
        // (a_lo+a_hi)(b_lo+b_hi) >= a_lo·b_lo + a_hi·b_hi always holds,
        // so the underflow comparison is debug-only.
        let z1 = z1_full.sub_unchecked(&z0).sub_unchecked(&z2);

        let mut acc = z0;
        acc += &(z1 << (half * LIMB_BITS));
        acc += &(z2 << (2 * half * LIMB_BITS));
        acc.limbs
    }

    /// Squares `self` — the same value as `self * self`, but the
    /// off-diagonal limb products `aᵢ·aⱼ` (i ≠ j) are computed once and
    /// doubled, roughly halving the multiplication work. Squarings
    /// dominate every modular exponentiation chain, which makes this
    /// the single hottest bignum primitive for threshold Paillier.
    pub fn sqr(&self) -> Nat {
        Nat::from_limbs(Self::sqr_limbs(&self.limbs))
    }

    /// Karatsuba-style squaring on limb slices: `a² = a₁²·B² +
    /// ((a₁+a₀)² − a₁² − a₀²)·B + a₀²` recurses into three squarings.
    fn sqr_limbs(a: &[u64]) -> Vec<u64> {
        if a.len() < KARATSUBA_THRESHOLD {
            return Self::sqr_schoolbook(a);
        }
        let half = a.len() / 2;
        let (a_lo, a_hi) = a.split_at(half);
        let a_lo_n = Nat::from_limbs(a_lo.to_vec());
        let a_hi_n = Nat::from_limbs(a_hi.to_vec());
        let z0 = Nat::from_limbs(Self::sqr_limbs(&a_lo_n.limbs));
        let z2 = Nat::from_limbs(Self::sqr_limbs(&a_hi_n.limbs));
        let s = &a_lo_n + &a_hi_n;
        let z1_full = Nat::from_limbs(Self::sqr_limbs(&s.limbs));
        // (a_lo + a_hi)² >= a_lo² + a_hi², so the subtractions cannot
        // underflow; the debug-only comparison inside sub_unchecked
        // re-checks this.
        let z1 = z1_full.sub_unchecked(&z0).sub_unchecked(&z2);
        let mut acc = z0;
        acc += &(z1 << (half * LIMB_BITS));
        acc += &(z2 << (2 * half * LIMB_BITS));
        acc.limbs
    }

    /// Schoolbook squaring: accumulate the strict upper triangle,
    /// double it, then add the diagonal `aᵢ²` terms.
    fn sqr_schoolbook(a: &[u64]) -> Vec<u64> {
        let n = a.len();
        if n == 0 {
            return Vec::new();
        }
        let mut out = vec![0u64; 2 * n];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &aj) in a.iter().enumerate().skip(i + 1) {
                let cur = out[i + j] as u128 + ai as u128 * aj as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut idx = i + n;
            while carry != 0 {
                let cur = out[idx] as u128 + carry;
                out[idx] = cur as u64;
                carry = cur >> 64;
                idx += 1;
            }
        }
        // Double the cross terms (top bit of the triangle sum is always
        // free: the sum is < 2^(128n−1)).
        let mut carry_bit = 0u64;
        for d in out.iter_mut() {
            let top = *d >> 63;
            *d = (*d << 1) | carry_bit;
            carry_bit = top;
        }
        // Add the diagonal.
        let mut carry = 0u128;
        for (i, &ai) in a.iter().enumerate() {
            let sq = ai as u128 * ai as u128;
            let lo = out[2 * i] as u128 + (sq as u64) as u128 + carry;
            out[2 * i] = lo as u64;
            let hi = out[2 * i + 1] as u128 + (sq >> 64) + (lo >> 64);
            out[2 * i + 1] = hi as u64;
            carry = hi >> 64;
        }
        debug_assert_eq!(carry, 0, "a² fits in 2·len limbs");
        out
    }
}

impl From<u64> for Nat {
    fn from(v: u64) -> Self {
        Nat::from_limbs(vec![v])
    }
}

impl From<u32> for Nat {
    fn from(v: u32) -> Self {
        Nat::from(v as u64)
    }
}

impl From<u128> for Nat {
    fn from(v: u128) -> Self {
        Nat::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl From<usize> for Nat {
    fn from(v: usize) -> Self {
        Nat::from(v as u64)
    }
}

impl FromStr for Nat {
    type Err = ParseNatError;

    /// Parses a decimal string (or hex with an `0x` prefix).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(ParseNatError { kind: ParseNatErrorKind::Empty });
        }
        if let Some(hex) = s.strip_prefix("0x") {
            if hex.is_empty() {
                return Err(ParseNatError { kind: ParseNatErrorKind::Empty });
            }
            let mut acc = Nat::zero();
            for c in hex.chars() {
                let d = c
                    .to_digit(16)
                    .ok_or(ParseNatError { kind: ParseNatErrorKind::InvalidDigit(c) })?;
                acc = (acc << 4) + Nat::from(d as u64);
            }
            return Ok(acc);
        }
        let mut acc = Nat::zero();
        for c in s.chars() {
            let d = c
                .to_digit(10)
                .ok_or(ParseNatError { kind: ParseNatErrorKind::InvalidDigit(c) })?;
            acc = &(&acc * &Nat::from(10u64)) + &Nat::from(d as u64);
        }
        Ok(acc)
    }
}

impl fmt::Display for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut digits = Vec::new();
        let mut cur = self.clone();
        let base = 10_000_000_000_000_000_000u64; // 10^19 fits in u64
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_limb(base);
            digits.push(r);
            cur = q;
        }
        let mut s = digits.pop().unwrap().to_string();
        for d in digits.iter().rev() {
            s.push_str(&format!("{d:019}"));
        }
        f.pad_integral(true, "", &s)
    }
}

impl fmt::Debug for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Nat({self})")
    }
}

impl fmt::LowerHex for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut s = format!("{:x}", self.limbs.last().unwrap());
        for limb in self.limbs.iter().rev().skip(1) {
            s.push_str(&format!("{limb:016x}"));
        }
        f.pad_integral(true, "0x", &s)
    }
}

impl Ord for Nat {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl PartialOrd for Nat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<&Nat> for &Nat {
    type Output = Nat;
    fn add(self, rhs: &Nat) -> Nat {
        let (long, short) = if self.limbs.len() >= rhs.limbs.len() {
            (&self.limbs, &rhs.limbs)
        } else {
            (&rhs.limbs, &self.limbs)
        };
        let mut out = long.clone();
        let mut carry = 0u64;
        for (i, &s) in short.iter().enumerate() {
            let (v1, c1) = out[i].overflowing_add(s);
            let (v2, c2) = v1.overflowing_add(carry);
            out[i] = v2;
            carry = (c1 as u64) + (c2 as u64);
        }
        let mut i = short.len();
        while carry != 0 && i < out.len() {
            let (v, c) = out[i].overflowing_add(carry);
            out[i] = v;
            carry = c as u64;
            i += 1;
        }
        if carry != 0 {
            out.push(carry);
        }
        Nat::from_limbs(out)
    }
}

impl Add for Nat {
    type Output = Nat;
    fn add(self, rhs: Nat) -> Nat {
        &self + &rhs
    }
}

impl AddAssign<&Nat> for Nat {
    fn add_assign(&mut self, rhs: &Nat) {
        *self = &*self + rhs;
    }
}

impl Sub<&Nat> for &Nat {
    type Output = Nat;
    /// # Panics
    /// Panics on underflow; use [`Nat::checked_sub`] to handle that case.
    fn sub(self, rhs: &Nat) -> Nat {
        self.checked_sub(rhs).expect("Nat subtraction underflow")
    }
}

impl Sub for Nat {
    type Output = Nat;
    fn sub(self, rhs: Nat) -> Nat {
        &self - &rhs
    }
}

impl SubAssign<&Nat> for Nat {
    fn sub_assign(&mut self, rhs: &Nat) {
        *self = &*self - rhs;
    }
}

impl Mul<&Nat> for &Nat {
    type Output = Nat;
    fn mul(self, rhs: &Nat) -> Nat {
        Nat::from_limbs(Nat::mul_limbs(&self.limbs, &rhs.limbs))
    }
}

impl Mul for Nat {
    type Output = Nat;
    fn mul(self, rhs: Nat) -> Nat {
        &self * &rhs
    }
}

impl MulAssign<&Nat> for Nat {
    fn mul_assign(&mut self, rhs: &Nat) {
        *self = &*self * rhs;
    }
}

impl Rem<&Nat> for &Nat {
    type Output = Nat;
    fn rem(self, rhs: &Nat) -> Nat {
        self.div_rem(rhs).1
    }
}

impl Rem<&Nat> for Nat {
    type Output = Nat;
    fn rem(self, rhs: &Nat) -> Nat {
        self.div_rem(rhs).1
    }
}

impl Shl<usize> for &Nat {
    type Output = Nat;
    fn shl(self, shift: usize) -> Nat {
        self.clone() << shift
    }
}

impl Shr<usize> for &Nat {
    type Output = Nat;
    fn shr(self, shift: usize) -> Nat {
        self.clone() >> shift
    }
}

impl Shl<usize> for Nat {
    type Output = Nat;
    fn shl(self, shift: usize) -> Nat {
        if self.is_zero() || shift == 0 {
            return self;
        }
        let limb_shift = shift / LIMB_BITS;
        let bit_shift = shift % LIMB_BITS;
        let mut out = vec![0u64; limb_shift];
        #[allow(clippy::manual_is_multiple_of)]
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (LIMB_BITS - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        Nat::from_limbs(out)
    }
}

impl Shr<usize> for Nat {
    type Output = Nat;
    fn shr(self, shift: usize) -> Nat {
        let limb_shift = shift / LIMB_BITS;
        if limb_shift >= self.limbs.len() {
            return Nat::zero();
        }
        let bit_shift = shift % LIMB_BITS;
        let mut out = self.limbs[limb_shift..].to_vec();
        if bit_shift != 0 {
            for i in 0..out.len() {
                out[i] >>= bit_shift;
                if i + 1 < out.len() {
                    out[i] |= out[i + 1] << (LIMB_BITS - bit_shift);
                }
            }
        }
        Nat::from_limbs(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn n(v: u128) -> Nat {
        Nat::from(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(Nat::zero().is_zero());
        assert!(Nat::one().is_one());
        assert!(Nat::zero().is_even());
        assert!(Nat::one().is_odd());
        assert_eq!(Nat::default(), Nat::zero());
    }

    #[test]
    fn add_with_carry_chain() {
        let a = Nat::from_limbs(vec![u64::MAX, u64::MAX]);
        let b = Nat::one();
        let c = &a + &b;
        assert_eq!(c, Nat::from_limbs(vec![0, 0, 1]));
    }

    #[test]
    fn sub_with_borrow_chain() {
        let a = Nat::from_limbs(vec![0, 0, 1]);
        let b = Nat::one();
        assert_eq!(&a - &b, Nat::from_limbs(vec![u64::MAX, u64::MAX]));
        assert_eq!(b.checked_sub(&a), None);
    }

    #[test]
    fn mul_small() {
        assert_eq!(&n(0) * &n(12345), n(0));
        assert_eq!(&n(1 << 40) * &n(1 << 40), n(1 << 80));
        assert_eq!(&n(u64::MAX as u128) * &n(u64::MAX as u128), n((u64::MAX as u128) * (u64::MAX as u128)));
    }

    #[test]
    fn mul_karatsuba_matches_schoolbook() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..5 {
            let a = Nat::random_bits(&mut rng, 64 * 64 + 13);
            let b = Nat::random_bits(&mut rng, 64 * 50 + 5);
            let kar = &a * &b;
            let school = Nat::from_limbs(Nat::mul_schoolbook(a.limbs(), b.limbs()));
            assert_eq!(kar, school);
        }
    }

    #[test]
    fn sqr_matches_mul() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        assert_eq!(Nat::zero().sqr(), Nat::zero());
        assert_eq!(Nat::one().sqr(), Nat::one());
        assert_eq!(n(u64::MAX as u128).sqr(), &n(u64::MAX as u128) * &n(u64::MAX as u128));
        // Bit lengths straddling the Karatsuba threshold, plus odd
        // widths to exercise carry chains.
        for bits in [1usize, 63, 64, 65, 640, 64 * 23, 64 * 24, 64 * 30 + 17, 64 * 50 + 5] {
            for _ in 0..3 {
                let a = Nat::random_bits(&mut rng, bits);
                assert_eq!(a.sqr(), &a * &a, "bits={bits}");
            }
        }
    }

    #[test]
    fn div_rem_basic() {
        let (q, r) = n(1000).div_rem(&n(7));
        assert_eq!((q, r), (n(142), n(6)));
        let (q, r) = n(7).div_rem(&n(1000));
        assert_eq!((q, r), (n(0), n(7)));
        let (q, r) = n(1000).div_rem(&n(1000));
        assert_eq!((q, r), (n(1), n(0)));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = n(5).div_rem(&Nat::zero());
    }

    #[test]
    fn div_rem_multilimb_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let a = Nat::random_bits(&mut rng, 700);
            let b = Nat::random_bits(&mut rng, 320);
            let (q, r) = a.div_rem(&b);
            assert!(r < b);
            assert_eq!(&(&q * &b) + &r, a);
        }
    }

    #[test]
    fn shifts_roundtrip() {
        let a: Nat = "123456789012345678901234567890".parse().unwrap();
        assert_eq!((a.clone() << 133) >> 133, a);
        assert_eq!(a.clone() >> 1000, Nat::zero());
    }

    #[test]
    fn display_and_parse_roundtrip() {
        let cases = ["0", "1", "18446744073709551616", "340282366920938463463374607431768211455"];
        for c in cases {
            let v: Nat = c.parse().unwrap();
            assert_eq!(v.to_string(), c);
        }
        assert_eq!("0xff".parse::<Nat>().unwrap(), n(255));
        assert!("".parse::<Nat>().is_err());
        assert!("12a".parse::<Nat>().is_err());
    }

    #[test]
    fn bytes_roundtrip() {
        let v: Nat = "98765432109876543210987654321098765432".parse().unwrap();
        assert_eq!(Nat::from_bytes_be(&v.to_bytes_be()), v);
        assert_eq!(Nat::zero().to_bytes_be(), Vec::<u8>::new());
        assert_eq!(Nat::from_bytes_be(&[]), Nat::zero());
    }

    #[test]
    fn bit_len_and_bit() {
        assert_eq!(Nat::zero().bit_len(), 0);
        assert_eq!(Nat::one().bit_len(), 1);
        assert_eq!(n(1 << 70).bit_len(), 71);
        assert!(n(1 << 70).bit(70));
        assert!(!n(1 << 70).bit(69));
        assert!(!n(1 << 70).bit(500));
    }

    #[test]
    fn random_below_is_in_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let bound: Nat = "123456789123456789123456789".parse().unwrap();
        for _ in 0..100 {
            let v = Nat::random_below(&mut rng, &bound);
            assert!(v < bound);
        }
    }

    #[test]
    fn random_bits_has_exact_width() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for bits in [1usize, 2, 63, 64, 65, 127, 128, 129, 512] {
            let v = Nat::random_bits(&mut rng, bits);
            assert_eq!(v.bit_len(), bits);
        }
    }

    #[test]
    fn ordering() {
        assert!(n(5) < n(6));
        assert!(Nat::from_limbs(vec![0, 1]) > n(u64::MAX as u128));
        assert_eq!(n(7).cmp(&n(7)), Ordering::Equal);
    }

    #[test]
    fn hex_formatting() {
        assert_eq!(format!("{:x}", n(255)), "ff");
        assert_eq!(format!("{:x}", Nat::from_limbs(vec![0, 1])), "10000000000000000");
        assert_eq!(format!("{:x}", Nat::zero()), "0");
    }
}

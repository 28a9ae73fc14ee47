//! secp256k1 group operations.
//!
//! Curve: `y² = x³ + 7` over `F_p`. Points are kept in Jacobian projective
//! coordinates for arithmetic and serialized uncompressed as `x || y`
//! (64 bytes). Three multiplication strategies, all variable-time:
//!
//! * **Fixed base** ([`base_mul`]): a lazily built table of
//!   `j·16^i·G` for `i < 64`, `1 ≤ j ≤ 15`, stored *affine* (64 B per entry,
//!   60 KiB in all; normalised with one batched inversion), so `k·G` is at
//!   most 64 mixed additions (8M + 3S each) and no doublings.
//! * **Variable base** ([`Jacobian::scalar_mul`]): width-5 wNAF over the odd
//!   multiples `P, 3P, …, 15P` — 256 doublings and about 43 additions.
//! * **Double** ([`base_double_mul`]): `a·G + b·P` runs the wNAF pass for
//!   `P` and then walks the fixed-base table into the *same* accumulator, so
//!   the result is never split into two points that must be normalised and
//!   joined.
//! * **Multi** ([`base_multi_mul`]): `a·G + Σ kᵢ·Pᵢ` interleaves the wNAF
//!   passes of all the `Pᵢ` over one shared chain of doublings, then walks
//!   the table the same way — the batch verifier's one pass.

use crate::field::Fe;
use crate::modarith::fn_order;
use crate::u256::U256;
use std::sync::OnceLock;

/// A point in Jacobian coordinates; `z == 0` encodes the point at infinity.
#[derive(Debug, Clone, Copy)]
pub struct Jacobian {
    x: Fe,
    y: Fe,
    z: Fe,
}

/// A normalized affine point (never infinity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Affine {
    /// x coordinate.
    pub x: Fe,
    /// y coordinate.
    pub y: Fe,
}

/// The generator point G.
pub const fn generator() -> Affine {
    Affine {
        x: Fe::from_limbs([
            0x59f2_815b_16f8_1798,
            0x029b_fcdb_2dce_28d9,
            0x55a0_6295_ce87_0b07,
            0x79be_667e_f9dc_bbac,
        ]),
        y: Fe::from_limbs([
            0x9c47_d08f_fb10_d4b8,
            0xfd17_b448_a685_5419,
            0x5da4_fbfc_0e11_08a8,
            0x483a_da77_26a3_c465,
        ]),
    }
}

impl Affine {
    /// Serializes as 64 bytes (`x || y`, big-endian).
    pub fn to_bytes(self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.x.to_be_bytes());
        out[32..].copy_from_slice(&self.y.to_be_bytes());
        out
    }

    /// Parses 64 bytes, validating that both coordinates are reduced and
    /// the point is on the curve.
    pub fn from_bytes(bytes: &[u8; 64]) -> Option<Affine> {
        let x = Fe::from_be_bytes(bytes[..32].try_into().unwrap())?;
        let y = Fe::from_be_bytes(bytes[32..].try_into().unwrap())?;
        let p = Affine { x, y };
        p.is_on_curve().then_some(p)
    }

    /// Checks the curve equation `y² = x³ + 7`.
    pub fn is_on_curve(&self) -> bool {
        self.y.sqr() == self.x.sqr() * self.x + Fe::from_u64(7)
    }

    /// Lifts to Jacobian coordinates.
    pub fn to_jacobian(self) -> Jacobian {
        Jacobian {
            x: self.x,
            y: self.y,
            z: Fe::ONE,
        }
    }

    /// Point negation.
    #[allow(clippy::should_implement_trait)] // group-theory vocabulary; operands are &self elsewhere
    pub fn neg(self) -> Affine {
        Affine {
            x: self.x,
            y: -self.y,
        }
    }
}

impl Jacobian {
    /// The point at infinity (group identity).
    pub const INFINITY: Jacobian = Jacobian {
        x: Fe::ONE,
        y: Fe::ONE,
        z: Fe::ZERO,
    };

    /// Returns true for the point at infinity.
    pub fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    /// Point negation.
    #[allow(clippy::should_implement_trait)] // as for `Affine::neg`
    pub fn neg(&self) -> Jacobian {
        Jacobian {
            x: self.x,
            y: -self.y,
            z: self.z,
        }
    }

    /// Point doubling (`dbl-2009-l` for a = 0: 2M + 5S).
    pub fn double(&self) -> Jacobian {
        if self.is_infinity() || self.y.is_zero() {
            return Jacobian::INFINITY;
        }
        let a = self.x.sqr();
        let b = self.y.sqr();
        let c = b.sqr();
        // D = 2*((X+B)^2 - A - C)
        let d0 = (self.x + b).sqr() - a - c;
        let d = d0 + d0;
        let e = a + a + a;
        let x3 = e.sqr() - (d + d);
        let c2 = c + c;
        let c4 = c2 + c2;
        let y3 = e * (d - x3) - (c4 + c4);
        let yz = self.y * self.z;
        Jacobian {
            x: x3,
            y: y3,
            z: yz + yz,
        }
    }

    /// General point addition (`add-2007-bl` shape: 12M + 4S).
    pub fn add(&self, other: &Jacobian) -> Jacobian {
        if self.is_infinity() {
            return *other;
        }
        if other.is_infinity() {
            return *self;
        }
        let z1z1 = self.z.sqr();
        let z2z2 = other.z.sqr();
        let u1 = self.x * z2z2;
        let u2 = other.x * z1z1;
        let s1 = self.y * other.z * z2z2;
        let s2 = other.y * self.z * z1z1;
        if u1 == u2 {
            return if s1 == s2 {
                self.double()
            } else {
                Jacobian::INFINITY
            };
        }
        let h = u2 - u1;
        let hh = h.sqr();
        let hhh = h * hh;
        let v = u1 * hh;
        let r = s2 - s1;
        let x3 = r.sqr() - hhh - (v + v);
        Jacobian {
            x: x3,
            y: r * (v - x3) - s1 * hhh,
            z: self.z * other.z * h,
        }
    }

    /// Mixed addition of an affine point (`Z2 = 1`: 8M + 3S).
    pub fn add_affine(&self, other: &Affine) -> Jacobian {
        if self.is_infinity() {
            return other.to_jacobian();
        }
        let z1z1 = self.z.sqr();
        let u2 = other.x * z1z1;
        let s2 = other.y * self.z * z1z1;
        if u2 == self.x {
            return if s2 == self.y {
                self.double()
            } else {
                Jacobian::INFINITY
            };
        }
        let h = u2 - self.x;
        let hh = h.sqr();
        let hhh = h * hh;
        let v = self.x * hh;
        let r = s2 - self.y;
        let x3 = r.sqr() - hhh - (v + v);
        Jacobian {
            x: x3,
            y: r * (v - x3) - self.y * hhh,
            z: self.z * h,
        }
    }

    /// Scalar multiplication by width-5 wNAF: one doubling per bit and one
    /// addition per nonzero digit (one in six on average).
    pub fn scalar_mul(&self, k: &U256) -> Jacobian {
        if k.is_zero() || self.is_infinity() {
            return Jacobian::INFINITY;
        }
        let odd = odd_multiples(self);
        wnaf_chain(&[wnaf(k)], |acc, _, digit| {
            let multiple = &odd[usize::from(digit.unsigned_abs() / 2)];
            if digit > 0 {
                acc.add(multiple)
            } else {
                acc.add(&multiple.neg())
            }
        })
    }

    /// Converts to affine coordinates (`None` for infinity); one inversion.
    pub fn to_affine(&self) -> Option<Affine> {
        (!self.is_infinity()).then(|| self.scaled(self.z.inv()))
    }

    /// The affine form, given `1/z`.
    fn scaled(&self, zinv: Fe) -> Affine {
        let zinv2 = zinv.sqr();
        Affine {
            x: self.x * zinv2,
            y: self.y * zinv2 * zinv,
        }
    }

    /// Compares with an affine point without inverting: `(X, Y, Z)` is
    /// `(x, y)` iff `X = x·Z²` and `Y = y·Z³`. Infinity equals nothing.
    pub fn eq_affine(&self, other: &Affine) -> bool {
        if self.is_infinity() {
            return false;
        }
        let zz = self.z.sqr();
        self.x == other.x * zz && self.y == other.y * zz * self.z
    }
}

/// Window width of the signed-digit form used for variable-base scalars.
const WNAF_WIDTH: usize = 5;

/// Width-5 non-adjacent form of `k`: `k = Σ digits[i]·2^i`, every digit zero
/// or odd with `|digit| < 16`, and a nonzero digit is followed by at least
/// four zeros. The 257th digit absorbs the carry out of a scalar near 2^256.
fn wnaf(k: &U256) -> [i8; 257] {
    let mut digits = [0i8; 257];
    let mut carry = 0u64;
    let mut i = 0;
    while i < 256 {
        if u64::from(k.bit(i)) == carry {
            // Bit plus carry is 0 or 2: a zero digit, the carry stands.
            i += 1;
            continue;
        }
        let width = WNAF_WIDTH.min(256 - i);
        let word = k.bits(i, width) + carry; // odd, below 2^width
        carry = word >> (width - 1);
        digits[i] = (word as i8) - ((carry as i8) << width);
        i += width;
    }
    digits[256] = carry as i8;
    digits
}

/// Odd multiples per table of a width-5 wNAF pass.
const ODD: usize = 1 << (WNAF_WIDTH - 2);

/// `P, 3P, …, 15P`: the multiples a width-5 digit selects.
fn odd_multiples(p: &Jacobian) -> [Jacobian; ODD] {
    let twice = p.double();
    let mut odd = [*p; ODD];
    for i in 1..ODD {
        odd[i] = odd[i - 1].add(&twice);
    }
    odd
}

/// The doubling chain of a wNAF pass over one or more scalars' digits:
/// top digit position down, double the accumulator, then hand it to `add`
/// with each term's nonzero digit there (`add(acc, term, digit)`). Terms
/// that share the pass share the doublings, as long as the longest scalar.
fn wnaf_chain(
    digits: &[[i8; 257]],
    mut add: impl FnMut(Jacobian, usize, i8) -> Jacobian,
) -> Jacobian {
    let Some(top) = digits
        .iter()
        .filter_map(|d| d.iter().rposition(|&x| x != 0))
        .max()
    else {
        return Jacobian::INFINITY;
    };
    let mut acc = Jacobian::INFINITY;
    for i in (0..=top).rev() {
        acc = acc.double();
        for (term, d) in digits.iter().enumerate() {
            if d[i] != 0 {
                acc = add(acc, term, d[i]);
            }
        }
    }
    acc
}

/// Converts points to affine with a single field inversion (Montgomery's
/// trick: invert the product of all `z`, then peel one factor at a time).
///
/// # Panics
///
/// Panics if a point is infinity.
fn batch_to_affine(points: &[Jacobian]) -> Vec<Affine> {
    // prefix[i] = z_0 · … · z_i.
    let mut prefix = Vec::with_capacity(points.len());
    let mut product = Fe::ONE;
    for p in points {
        product = product * p.z;
        prefix.push(product);
    }
    let mut out = vec![generator(); points.len()];
    // Invariant going down: inv = 1 / (z_0 · … · z_i).
    let mut inv = product.inv();
    for i in (0..points.len()).rev() {
        let zinv = if i == 0 { inv } else { inv * prefix[i - 1] };
        inv = inv * points[i].z;
        out[i] = points[i].scaled(zinv);
    }
    out
}

/// Precomputed multiples of G: `TABLE[i][j-1] = j * 16^i * G`, built on
/// first use. No entry is infinity (`j·16^i < 2^256` is never a multiple of
/// the prime order).
fn base_table() -> &'static [[Affine; 15]] {
    static TABLE: OnceLock<Vec<[Affine; 15]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut multiples = Vec::with_capacity(64 * 15);
        let mut base = generator().to_jacobian();
        for _ in 0..64 {
            let mut multiple = base;
            for _ in 0..15 {
                multiples.push(multiple);
                multiple = multiple.add(&base);
            }
            // The sixteenth multiple is the next row's base.
            base = multiple;
        }
        batch_to_affine(&multiples)
            .chunks_exact(15)
            .map(|row| row.try_into().expect("rows of 15"))
            .collect()
    })
}

/// Adds `k * G` to `acc` by walking the fixed-base table: one mixed
/// addition per nonzero nibble of `k`.
fn base_mul_onto(mut acc: Jacobian, k: &U256) -> Jacobian {
    for (i, row) in base_table().iter().enumerate() {
        let nib = k.nibble(i) as usize;
        if nib != 0 {
            acc = acc.add_affine(&row[nib - 1]);
        }
    }
    acc
}

/// Fast fixed-base multiplication `k * G` using the precomputed table.
pub fn base_mul(k: &U256) -> Jacobian {
    base_mul_onto(Jacobian::INFINITY, k)
}

/// Double-scalar multiplication `a*G + b*P` (the verifier hot path) into
/// one accumulator: the wNAF pass over `P`, then the table walk for `G`.
pub fn base_double_mul(a: &U256, b: &U256, p: &Affine) -> Jacobian {
    base_mul_onto(p.to_jacobian().scalar_mul(b), a)
}

/// Multi-scalar multiplication `a·G + Σ kᵢ·Pᵢ` (the batch verifier's
/// sum) into one accumulator: one interleaved wNAF pass over every `Pᵢ`,
/// then the table walk for `G`. However many terms, there is one chain of
/// doublings; each term adds its odd multiples (1 doubling, 7 additions)
/// and about one addition per six bits of its scalar, so a 128-bit scalar
/// costs half a 256-bit one. All the terms' multiples are normalised with
/// one shared inversion, so the pass adds them mixed (8M + 3S, not
/// 12M + 4S).
pub fn base_multi_mul(a: &U256, terms: &[(U256, Affine)]) -> Jacobian {
    let odd: Vec<Jacobian> = terms
        .iter()
        .flat_map(|(_, p)| odd_multiples(&p.to_jacobian()))
        .collect();
    // No odd multiple is infinity: each is (2i + 1)·P with 2i + 1 < n.
    let odd = batch_to_affine(&odd);
    let digits: Vec<[i8; 257]> = terms.iter().map(|(k, _)| wnaf(k)).collect();
    let acc = wnaf_chain(&digits, |acc, term, digit| {
        let multiple = odd[term * ODD + usize::from(digit.unsigned_abs() / 2)];
        if digit > 0 {
            acc.add_affine(&multiple)
        } else {
            acc.add_affine(&multiple.neg())
        }
    });
    base_mul_onto(acc, a)
}

/// The group order as a scalar-context convenience.
pub fn order() -> U256 {
    fn_order().m
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn affine_hex(p: &Jacobian) -> (String, String) {
        let a = p.to_affine().unwrap();
        (a.x.to_hex(), a.y.to_hex())
    }

    /// The plain 4-bit fixed-window ladder over general additions: the
    /// reference the table, wNAF and double multiplications are checked
    /// against.
    fn ladder_mul(p: &Jacobian, k: &U256) -> Jacobian {
        let mut table = [Jacobian::INFINITY; 16];
        for i in 1..16 {
            table[i] = table[i - 1].add(p);
        }
        let mut acc = Jacobian::INFINITY;
        for i in (0..64).rev() {
            acc = acc.double().double().double().double();
            acc = acc.add(&table[k.nibble(i) as usize]);
        }
        acc
    }

    fn g() -> Jacobian {
        generator().to_jacobian()
    }

    fn n_minus_one() -> U256 {
        fn_order().neg(&U256::ONE)
    }

    fn edge_scalars() -> Vec<U256> {
        vec![
            U256::ZERO,
            U256::ONE,
            U256::from_u64(2),
            U256::from_u64(15),
            U256::from_u64(16),
            U256::from_u64(31),
            n_minus_one(),
            order(),
            U256 {
                limbs: [u64::MAX; 4],
            },
            U256::from_hex("8000000000000000000000000000000000000000000000000000000000000000"),
            U256::from_hex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ]
    }

    #[test]
    fn generator_constant() {
        let g = generator();
        assert_eq!(
            g.x.to_hex(),
            "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"
        );
        assert_eq!(
            g.y.to_hex(),
            "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"
        );
        assert!(g.is_on_curve());
        assert_eq!(Affine::from_bytes(&g.to_bytes()), Some(g));
    }

    #[test]
    fn known_multiples() {
        // Vectors computed with an independent Python implementation.
        let (x2, y2) = affine_hex(&g().double());
        assert_eq!(
            x2,
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5"
        );
        assert_eq!(
            y2,
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a"
        );
        let (x3, y3) = affine_hex(&g().scalar_mul(&U256::from_u64(3)));
        assert_eq!(
            x3,
            "f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9"
        );
        assert_eq!(
            y3,
            "388f7b0f632de8140fe337e62a37f3566500a99934c2231b6cb9fd7584b8e672"
        );
        let (x7, _) = affine_hex(&g().scalar_mul(&U256::from_u64(7)));
        assert_eq!(
            x7,
            "5cbdf0646e5db4eaa398f365f2ea7a0e3d419b7e0330e39ce92bddedcac4f9bc"
        );
        for mul in [
            base_mul(&U256::from_u64(0xdead_beef)),
            g().scalar_mul(&U256::from_u64(0xdead_beef)),
        ] {
            let (xd, yd) = affine_hex(&mul);
            assert_eq!(
                xd,
                "76d2fdf1302d1fa9556f4df94ec84cefba6d482e54f47c6c2a238c1baa560f0e"
            );
            assert_eq!(
                yd,
                "b754ac7e7a3e09c44184cb451a4f5fb557f32053eb015dffebb655b5cfd54d8a"
            );
        }
    }

    #[test]
    fn order_minus_one_is_negation() {
        let p = g().scalar_mul(&n_minus_one()).to_affine().unwrap();
        assert_eq!(p.x, generator().x);
        assert_eq!(p, generator().neg());
        // (n-1)G + G = infinity.
        assert!(g().scalar_mul(&n_minus_one()).add(&g()).is_infinity());
        assert!(base_mul(&n_minus_one())
            .add_affine(&generator())
            .is_infinity());
    }

    #[test]
    fn multiplications_match_the_ladder_on_edge_scalars() {
        let p = g().scalar_mul(&U256::from_u64(0xdead_beef));
        let p_affine = p.to_affine().unwrap();
        for k in edge_scalars() {
            assert_eq!(
                base_mul(&k).to_affine(),
                ladder_mul(&g(), &k).to_affine(),
                "base_mul {k}"
            );
            assert_eq!(
                p.scalar_mul(&k).to_affine(),
                ladder_mul(&p, &k).to_affine(),
                "scalar_mul {k}"
            );
            for a in edge_scalars() {
                assert_eq!(
                    base_double_mul(&a, &k, &p_affine).to_affine(),
                    ladder_mul(&g(), &a).add(&ladder_mul(&p, &k)).to_affine(),
                    "double_mul {a} {k}"
                );
            }
        }
    }

    #[test]
    fn multi_mul_matches_the_ladder_on_edge_scalars() {
        let points: Vec<Affine> = [3u64, 0xdead_beef, 0x1234_5678_9abc]
            .iter()
            .map(|&x| base_mul(&U256::from_u64(x)).to_affine().unwrap())
            .collect();
        let ladder_sum = |a: &U256, terms: &[(U256, Affine)]| {
            terms.iter().fold(ladder_mul(&g(), a), |acc, (k, p)| {
                acc.add(&ladder_mul(&p.to_jacobian(), k))
            })
        };
        let scalars = edge_scalars();
        for (i, a) in scalars.iter().enumerate() {
            // No terms at all is the fixed-base walk alone.
            assert_eq!(base_multi_mul(a, &[]).to_affine(), base_mul(a).to_affine());
            let terms: Vec<(U256, Affine)> = (0..points.len())
                .map(|j| (scalars[(i + j + 1) % scalars.len()], points[j]))
                .collect();
            assert_eq!(
                base_multi_mul(a, &terms).to_affine(),
                ladder_sum(a, &terms).to_affine(),
                "multi_mul {a}"
            );
            assert_eq!(
                base_multi_mul(a, &terms[..1]).to_affine(),
                base_double_mul(a, &terms[0].0, &terms[0].1).to_affine()
            );
        }
        // Terms that cancel: k·P + k·(−P) vanishes, leaving a·G.
        let k = scalars[10];
        let cancel = [(k, points[1]), (k, points[1].neg())];
        assert!(base_multi_mul(&U256::ZERO, &cancel).is_infinity());
        assert_eq!(
            base_multi_mul(&k, &cancel).to_affine(),
            base_mul(&k).to_affine()
        );
    }

    #[test]
    fn double_mul_cancels_to_infinity() {
        // a·G + b·P with P = x·G and a = −b·x is the identity.
        let f = fn_order();
        let x = U256::from_u64(0x1234_5678_9abc);
        let p = base_mul(&x).to_affine().unwrap();
        let b = U256::from_hex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
        let a = f.neg(&f.mul(&f.reduce(b), &x));
        assert!(base_double_mul(&a, &f.reduce(b), &p).is_infinity());
    }

    #[test]
    fn wnaf_digits_are_sparse_odd_and_sum_to_the_scalar() {
        let f = fn_order();
        for k in edge_scalars() {
            let digits = wnaf(&k);
            let mut last_nonzero = None;
            for (i, &d) in digits.iter().enumerate() {
                if d != 0 {
                    assert!(d % 2 != 0 && d.unsigned_abs() < 16, "digit {d} at {i}");
                    if let Some(prev) = last_nonzero {
                        assert!(i - prev >= WNAF_WIDTH.min(256 - prev), "digits too close");
                    }
                    last_nonzero = Some(i);
                }
            }
            // Σ digit·2^i by Horner's rule, modulo the group order.
            let sum = digits.iter().rev().fold(U256::ZERO, |acc, &d| {
                let magnitude = U256::from_u64(u64::from(d.unsigned_abs()));
                let doubled = f.add(&acc, &acc);
                if d < 0 {
                    f.sub(&doubled, &magnitude)
                } else {
                    f.add(&doubled, &magnitude)
                }
            });
            assert_eq!(sum, f.reduce(k), "wnaf of {k}");
        }
    }

    #[test]
    fn add_commutes_and_identity() {
        let a = g().scalar_mul(&U256::from_u64(5));
        let b = g().scalar_mul(&U256::from_u64(11));
        assert_eq!(a.add(&b).to_affine(), b.add(&a).to_affine());
        assert_eq!(a.add(&Jacobian::INFINITY).to_affine(), a.to_affine());
        assert_eq!(Jacobian::INFINITY.add(&a).to_affine(), a.to_affine());
        // 5G + 11G = 16G.
        assert_eq!(
            a.add(&b).to_affine(),
            g().scalar_mul(&U256::from_u64(16)).to_affine()
        );
    }

    #[test]
    fn mixed_addition_special_cases() {
        let p = g().scalar_mul(&U256::from_u64(9));
        let pa = p.to_affine().unwrap();
        // P + P doubles; P + (−P) vanishes; infinity on either side.
        assert_eq!(p.add_affine(&pa).to_affine(), p.double().to_affine());
        assert!(p.add_affine(&pa.neg()).is_infinity());
        assert!(p.neg().add_affine(&pa).is_infinity());
        assert_eq!(Jacobian::INFINITY.add_affine(&pa).to_affine(), Some(pa));
        assert_eq!(
            p.add(&Jacobian::INFINITY)
                .add_affine(&generator())
                .to_affine(),
            p.add(&g()).to_affine()
        );
    }

    #[test]
    fn double_equals_add_self() {
        let p = g().scalar_mul(&U256::from_u64(9));
        assert_eq!(p.double().to_affine(), p.add(&p).to_affine());
    }

    #[test]
    fn projective_comparison() {
        let p = g().scalar_mul(&U256::from_u64(77));
        let pa = p.to_affine().unwrap();
        assert!(p.eq_affine(&pa));
        assert!(pa.to_jacobian().eq_affine(&pa));
        assert!(!p.eq_affine(&pa.neg()));
        assert!(!p.eq_affine(&generator()));
        assert!(!Jacobian::INFINITY.eq_affine(&pa));
    }

    #[test]
    fn batch_normalisation_matches_single() {
        let points: Vec<Jacobian> = (1..20u64)
            .map(|k| g().scalar_mul(&U256::from_u64(k * 0x9e37_79b9)))
            .collect();
        let singles: Vec<Affine> = points.iter().map(|p| p.to_affine().unwrap()).collect();
        assert_eq!(batch_to_affine(&points), singles);
        assert_eq!(batch_to_affine(&points[..1]), singles[..1]);
        assert!(batch_to_affine(&[]).is_empty());
    }

    #[test]
    fn base_table_rows_are_multiples_of_sixteen_powers() {
        let table = base_table();
        assert_eq!(table.len(), 64);
        assert_eq!(std::mem::size_of::<Affine>(), 64);
        assert_eq!(table[0][0], generator());
        assert_eq!(
            Some(table[0][14]),
            ladder_mul(&g(), &U256::from_u64(15)).to_affine()
        );
        let mut k = [0u64; 4];
        k[3] = 0xf << 60; // 15 · 16^63
        assert_eq!(
            Some(table[63][14]),
            ladder_mul(&g(), &U256 { limbs: k }).to_affine()
        );
        assert!(table.iter().flatten().all(Affine::is_on_curve));
    }

    #[test]
    fn serialization_roundtrip_and_validation() {
        let p = g().scalar_mul(&U256::from_u64(12345)).to_affine().unwrap();
        let bytes = p.to_bytes();
        assert_eq!(Affine::from_bytes(&bytes), Some(p));
        // Corrupt a coordinate: the point leaves the curve.
        let mut bad = bytes;
        bad[5] ^= 1;
        assert_eq!(Affine::from_bytes(&bad), None);
    }

    #[test]
    fn unreduced_coordinates_rejected() {
        // Only x < 2^256 − p has a second 256-bit encoding (x + p); a parser
        // that reduced instead of rejecting would accept these as 0 and C − 1.
        let max = U256 {
            limbs: [u64::MAX; 4],
        };
        for unreduced in [crate::field::P, max] {
            let mut bytes = generator().to_bytes();
            bytes[..32].copy_from_slice(&unreduced.to_be_bytes());
            assert_eq!(Affine::from_bytes(&bytes), None);
            let mut bytes = generator().to_bytes();
            bytes[32..].copy_from_slice(&unreduced.to_be_bytes());
            assert_eq!(Affine::from_bytes(&bytes), None);
        }
    }

    #[test]
    fn scalar_mul_zero_is_infinity() {
        assert!(g().scalar_mul(&U256::ZERO).is_infinity());
        assert!(base_mul(&U256::ZERO).is_infinity());
        assert!(Jacobian::INFINITY
            .scalar_mul(&U256::from_u64(5))
            .is_infinity());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_multiplications_match_the_ladder(a in any::<[u64; 4]>(), b in any::<[u64; 4]>(), x in 1u64..u64::MAX) {
            let (a, b) = (U256 { limbs: a }, U256 { limbs: b });
            let p = base_mul(&U256::from_u64(x));
            let p_affine = p.to_affine().unwrap();
            prop_assert_eq!(base_mul(&a).to_affine(), ladder_mul(&g(), &a).to_affine());
            prop_assert_eq!(p.scalar_mul(&b).to_affine(), ladder_mul(&p, &b).to_affine());
            prop_assert_eq!(
                base_double_mul(&a, &b, &p_affine).to_affine(),
                ladder_mul(&g(), &a).add(&ladder_mul(&p, &b)).to_affine()
            );
        }

        #[test]
        fn prop_multi_mul_matches_the_ladder(
            a in any::<[u64; 4]>(),
            // Per term: four scalar limbs, a point seed, and a coin that
            // halves the scalar's width, as the batch verifier's weights are.
            terms in proptest::collection::vec(any::<[u64; 6]>(), 0..5),
        ) {
            let terms: Vec<(U256, Affine)> = terms
                .iter()
                .map(|t| {
                    let mut k = [t[0], t[1], t[2], t[3]];
                    if t[5] & 1 == 1 {
                        k[2] = 0;
                        k[3] = 0;
                    }
                    let p = base_mul(&U256::from_u64(t[4].max(1))).to_affine().unwrap();
                    (U256 { limbs: k }, p)
                })
                .collect();
            let a = U256 { limbs: a };
            let expected = terms.iter().fold(ladder_mul(&g(), &a), |acc, (k, p)| {
                acc.add(&ladder_mul(&p.to_jacobian(), k))
            });
            prop_assert_eq!(base_multi_mul(&a, &terms).to_affine(), expected.to_affine());
        }

        #[test]
        fn prop_mixed_addition_matches_general(a in 1u64..u64::MAX, b in 1u64..u64::MAX) {
            let p = base_mul(&U256::from_u64(a));
            let q = g().scalar_mul(&U256::from_u64(b));
            let q_affine = q.to_affine().unwrap();
            prop_assert_eq!(p.add_affine(&q_affine).to_affine(), p.add(&q).to_affine());
            prop_assert_eq!(
                p.add_affine(&q_affine.neg()).to_affine(),
                p.add(&q.neg()).to_affine()
            );
            prop_assert!(p.add(&q).eq_affine(&p.add(&q).to_affine().unwrap()));
        }
    }
}

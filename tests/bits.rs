//! Bit pins: fixed FNV-1a digests over seeded quad and octo double
//! arithmetic and over functional least squares solves.
//!
//! A host-side speedup must keep the floating-point operation sequence,
//! so every constant below must survive it unchanged. A change that moves
//! a constant changes result bits, and has to say so and re-pin it.

use multidouble_ls::matrix::{random_vector, HostMat};
use multidouble_ls::md::random::rand_real;
use multidouble_ls::md::{Dd, MdReal, MdScalar, Od, Qd};
use multidouble_ls::sim::{ExecMode, Gpu, Profile};
use multidouble_ls::solver::{lstsq, LstsqOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// 64-bit FNV-1a over the bit patterns fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn real<T: MdReal>(&mut self, x: T) {
        for i in 0..T::LIMBS {
            self.f64(x.limb(i));
        }
    }
}

/// Operand pairs per arithmetic digest.
const PAIRS: usize = 256;

/// Digests of `a + b`, `a * b`, `a / b` and `sqrt(b)` over seeded
/// operands: `a` in `[-1, 1]` (so sums cancel), `b` in `[1, 3]`.
fn arith_digests<T: MdReal>(seed: u64) -> [(&'static str, u64); 4] {
    let mut rng = StdRng::seed_from_u64(seed);
    let two = T::from_f64(2.0);
    let mut d = [Fnv::new(), Fnv::new(), Fnv::new(), Fnv::new()];
    for _ in 0..PAIRS {
        let a: T = rand_real(&mut rng);
        let b: T = rand_real::<T, _>(&mut rng) + two;
        d[0].real(a + b);
        d[1].real(a * b);
        d[2].real(a / b);
        d[3].real(b.sqrt());
    }
    [
        ("add", d[0].0),
        ("mul", d[1].0),
        ("div", d[2].0),
        ("sqrt", d[3].0),
    ]
}

/// Collect every digest that differs from its pin, so one run names them all.
fn mismatches(got: &[(String, u64)], want: &[u64]) -> Vec<String> {
    assert_eq!(got.len(), want.len());
    got.iter()
        .zip(want)
        .filter(|((_, g), w)| g != *w)
        .map(|((name, g), w)| format!("{name}: got {g:#018x}, pinned {w:#018x}"))
        .collect()
}

#[test]
fn quad_and_octo_double_arithmetic_bits_are_pinned() {
    let mut got = Vec::new();
    for (op, v) in arith_digests::<Qd>(0x5eed_0004) {
        got.push((format!("qd {op}"), v));
    }
    for (op, v) in arith_digests::<Od>(0x5eed_0008) {
        got.push((format!("od {op}"), v));
    }
    let want = [
        0x180a_6f9e_cfd8_8371,
        0x3116_e502_5886_02a4,
        0x2e4a_46d3_160a_b28d,
        0x4780_acbd_a341_59fa,
        0x6e3b_ffa0_b1e8_fadb,
        0x07e2_9397_407e_213a,
        0x89a7_3c43_0bac_5130,
        0x4625_11bd_f914_66fe,
    ];
    let bad = mismatches(&got, &want);
    assert!(bad.is_empty(), "arithmetic bits moved:\n{}", bad.join("\n"));
}

/// Digests of one functional V100 solve: the solution limbs, and the
/// simulated profile (time, flops, bytes and launches of both phases).
fn lstsq_digests<T: MdReal + MdScalar>(seed: u64, tiles: usize, tile_size: usize) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cols = tiles * tile_size;
    let rows = cols + 3;
    let a = HostMat::<T>::random(rows, cols, &mut rng);
    let x_true: Vec<T> = random_vector(cols, &mut rng);
    let b = a.matvec(&x_true);
    let opts = LstsqOptions::tiled(tiles, tile_size, ExecMode::Sequential);
    let run = lstsq(&Gpu::v100(), &a, &b, &opts);

    let mut x = Fnv::new();
    x.u64(run.x.len() as u64);
    for &v in &run.x {
        x.real(v);
    }
    let mut sim = Fnv::new();
    for p in [&run.qr_profile, &run.bs_profile] {
        profile_digest(&mut sim, p);
    }
    (x.0, sim.0)
}

fn profile_digest(d: &mut Fnv, p: &Profile) {
    d.f64(p.wall_ms());
    d.f64(p.transfer_ms);
    d.u64(p.transfer_bytes);
    for s in p.stages() {
        d.f64(s.kernel_ms);
        d.u64(s.launches);
        d.f64(s.flops_paper);
        d.f64(s.flops_measured);
        d.u64(s.bytes);
    }
}

#[test]
fn functional_lstsq_bits_are_pinned() {
    let mut got = Vec::new();
    for (name, (x, sim)) in [
        ("dd 64", lstsq_digests::<Dd>(0x5eed_0064, 4, 16)),
        ("qd 32", lstsq_digests::<Qd>(0x5eed_0032, 2, 16)),
        ("od 16", lstsq_digests::<Od>(0x5eed_0016, 2, 8)),
    ] {
        got.push((format!("{name} solution"), x));
        got.push((format!("{name} profile"), sim));
    }
    let want = [
        0xa176_b512_5463_21af,
        0x9c1f_0991_65c9_c740,
        0x1a8e_250c_65bf_30c8,
        0xd670_94c3_1574_e72f,
        0x46b4_526f_3a49_c0ff,
        0xdada_6257_5d23_cbff,
    ];
    let bad = mismatches(&got, &want);
    assert!(bad.is_empty(), "lstsq bits moved:\n{}", bad.join("\n"));
}

//! Spatial filters: "a median filter is used to reduce noise in the
//! unprocessed picture. After the processing pipeline, the data can be
//! smoothened by an averaging filter."
//!
//! Both operate on a 3×3×3 neighbourhood with edge clamping, and both
//! run rayon-parallel over z-slabs (each slab is one "PE"'s work in the
//! domain decomposition used by the real-PE executor).
//!
//! # The median network
//!
//! [`median_filter`] is exact and branch-free. It works on one (y, z) row
//! of voxels at a time, [`LANES`] adjacent x positions per step, on
//! fixed-size lane arrays the compiler turns into SIMD min/max:
//!
//! 1. Gather the 9 edge-clamped neighbour rows (dy, dz ∈ {-1, 0, 1}),
//!    each padded with one clamped voxel at both x ends.
//! 2. Sort the 9-value column at every padded x with the 25-comparator
//!    network [`sort9`], giving ranks `c[0] ≤ … ≤ c[8]`.
//! 3. For an output voxel at x, sort each rank across the columns at
//!    x-1, x and x+1 (3 comparators per rank). This gives a 9×3 matrix
//!    `a[i][j]` sorted along both axes: sorting the rows of a
//!    column-sorted matrix keeps its columns sorted.
//! 4. Return the median of 13 candidates with a min/max network.
//!
//! Why step 4 is exact: `a[i][j]` is ≥ the (i+1)(j+1) entries with
//! smaller or equal indices, so if (i+1)(j+1) ≥ 15 it is at least the
//! 15th smallest of the 27 values; likewise it is ≤ the (9−i)(3−j)
//! entries with larger or equal indices, so if (9−i)(3−j) ≥ 15 it is at
//! most the 13th smallest. Seven entries fall in each class. Removing one
//! value ≤ the median together with one value ≥ it leaves the median of
//! an odd multiset unchanged, so the median of the 27 is the median (7th
//! smallest) of the 13 remaining candidates, the entries with
//! (i+1)(j+1) ≤ 14 and (9−i)(3−j) ≤ 14. They form three sorted runs:
//! `a[5..=8][0]`, `a[2..=6][1]` and `a[0..=3][2]`. The two runs of four
//! are merged with an odd-even merge network, and the 7th smallest of
//! that run and the run of five is a minimum of pairwise maxima.
//!
//! Every comparator is a `<` compare-exchange that either swaps its pair
//! or keeps it, so the network has no branch and cannot panic: a NaN
//! voxel only disturbs the outputs whose neighbourhood holds it.
//!
//! The averaging filter sums each voxel's 27 gathered neighbours in a
//! fixed order.

use gtw_scan::volume::Volume;
use rayon::prelude::*;

/// Collect the 27 edge-clamped neighbourhood values of `(x, y, z)`.
#[inline]
fn neighbourhood(vol: &Volume, x: usize, y: usize, z: usize, out: &mut [f32; 27]) {
    let d = vol.dims;
    let mut k = 0;
    for dz in -1isize..=1 {
        let zz = (z as isize + dz).clamp(0, d.nz as isize - 1) as usize;
        for dy in -1isize..=1 {
            let yy = (y as isize + dy).clamp(0, d.ny as isize - 1) as usize;
            for dx in -1isize..=1 {
                let xx = (x as isize + dx).clamp(0, d.nx as isize - 1) as usize;
                out[k] = vol.at(xx, yy, zz);
                k += 1;
            }
        }
    }
}

/// Voxels along x that the median network handles per step.
const LANES: usize = 8;

/// One value per lane.
type Lanes = [f32; LANES];

/// Lane-wise minimum: `b` where `b < a`, else `a`.
#[inline(always)]
fn min(a: Lanes, b: Lanes) -> Lanes {
    std::array::from_fn(|l| if b[l] < a[l] { b[l] } else { a[l] })
}

/// Lane-wise maximum: `a` where `b < a`, else `b`. With [`min`] this is
/// a compare-exchange, so ties and NaN keep the pair in place.
#[inline(always)]
fn max(a: Lanes, b: Lanes) -> Lanes {
    std::array::from_fn(|l| if b[l] < a[l] { a[l] } else { b[l] })
}

/// Compare-exchange: afterwards `v[i] ≤ v[j]` in every ordered lane.
#[inline(always)]
fn cx<const N: usize>(v: &mut [Lanes; N], i: usize, j: usize) {
    let (a, b) = (v[i], v[j]);
    v[i] = min(a, b);
    v[j] = max(a, b);
}

/// Sort `v` with a 25-comparator network for 9 inputs, written out one
/// parallel layer per line so every comparator compiles to straight-line
/// SIMD.
#[inline(always)]
fn sort9(v: &mut [Lanes; 9]) {
    macro_rules! layers {
        ($(($i:literal, $j:literal))*) => { $(cx(v, $i, $j);)* };
    }
    layers! {
        (0, 3) (1, 7) (2, 5) (4, 8)
        (0, 7) (2, 4) (3, 8) (5, 6)
        (0, 2) (1, 3) (4, 5) (7, 8)
        (1, 4) (3, 6) (5, 7)
        (0, 1) (2, 4) (3, 5) (6, 8)
        (2, 3) (4, 5) (6, 7)
        (1, 2) (3, 4) (5, 6)
    }
}

/// The [`LANES`] values of `s` starting at `at`.
#[inline(always)]
fn load(s: &[f32], at: usize) -> Lanes {
    let mut v = [0.0; LANES];
    v.copy_from_slice(&s[at..at + LANES]);
    v
}

/// Merge two sorted runs of four into one sorted run of eight (Batcher's
/// odd-even merge, 9 comparators).
#[inline(always)]
fn merge4(a: [Lanes; 4], b: [Lanes; 4]) -> [Lanes; 8] {
    // Merge two sorted pairs: [lo(p0,q0), cx(hi(p0,q0), lo(p1,q1)), hi(p1,q1)].
    let merge2 = |p0: Lanes, p1: Lanes, q0: Lanes, q1: Lanes| {
        let mut m = [min(p0, q0), max(p0, q0), min(p1, q1), max(p1, q1)];
        cx(&mut m, 1, 2);
        m
    };
    let e = merge2(a[0], a[2], b[0], b[2]);
    let o = merge2(a[1], a[3], b[1], b[3]);
    let mut m = [e[0], e[1], o[0], e[2], o[1], e[3], o[2], o[3]];
    cx(&mut m, 1, 2);
    cx(&mut m, 3, 4);
    cx(&mut m, 5, 6);
    m
}

/// The median of each lane's 27 values, given the column-sorted ranks
/// `cols` (rank-major, `width` per rank) of one row; output lane `l`
/// takes the columns at padded positions `x0 + l`, `+ 1` and `+ 2`.
#[inline(always)]
fn median_lanes(cols: &[f32], width: usize, x0: usize) -> Lanes {
    // Step 3: sort each rank across the three neighbouring columns.
    let a: [[Lanes; 3]; 9] = std::array::from_fn(|i| {
        let at = i * width + x0;
        let mut t = [load(cols, at), load(cols, at + 1), load(cols, at + 2)];
        cx(&mut t, 0, 1);
        cx(&mut t, 1, 2);
        cx(&mut t, 0, 1);
        t
    });
    // Step 4: the 7th smallest of the 13 candidates is the least
    // max(d[p - 1], b[6 - p]) over the splits taking p of them from `d`
    // and 7 - p from `b`. Taking all seven from `d` never wins: a[2][2]
    // and a[3][2] are ≥ b[0] = a[2][1], so d[6] ≥ max(d[5], b[0]).
    let d = merge4([a[5][0], a[6][0], a[7][0], a[8][0]], [a[0][2], a[1][2], a[2][2], a[3][2]]);
    let b = [a[2][1], a[3][1], a[4][1], a[5][1], a[6][1]];
    (3..=6).fold(max(d[1], b[4]), |m, p| min(m, max(d[p - 1], b[6 - p])))
}

/// 3×3×3 median filter (the FIRE noise-reduction module).
pub fn median_filter(vol: &Volume) -> Volume {
    let d = vol.dims;
    let mut out = Volume::zeros(d);
    // Padded row width: one clamped voxel at each end, rounded up so the
    // last lane block of step 3 still reads inside the row.
    let width = d.nx.div_ceil(LANES) * LANES + LANES;
    out.data.par_chunks_mut(d.nx * d.ny).enumerate().for_each(|(z, out_slab)| {
        let mut cols = vec![0.0f32; 9 * width];
        for (y, out_row) in out_slab.chunks_exact_mut(d.nx).enumerate() {
            // Step 1: the 9 padded neighbour rows.
            for (k, row) in cols.chunks_exact_mut(width).enumerate() {
                let zz = (z + k / 3).saturating_sub(1).min(d.nz - 1);
                let yy = (y + k % 3).saturating_sub(1).min(d.ny - 1);
                let src = &vol.data[d.index(0, yy, zz)..][..d.nx];
                row[0] = src[0];
                row[1..=d.nx].copy_from_slice(src);
                row[d.nx + 1..].fill(src[d.nx - 1]);
            }
            // Step 2: sort every column.
            for x0 in (0..width).step_by(LANES) {
                let mut c: [Lanes; 9] = std::array::from_fn(|k| load(&cols, k * width + x0));
                sort9(&mut c);
                for (k, v) in c.iter().enumerate() {
                    cols[k * width + x0..][..LANES].copy_from_slice(v);
                }
            }
            // Steps 3 and 4, one lane block of outputs at a time.
            for (b, out_lanes) in out_row.chunks_mut(LANES).enumerate() {
                let m = median_lanes(&cols, width, b * LANES);
                out_lanes.copy_from_slice(&m[..out_lanes.len()]);
            }
        }
    });
    out
}

/// 3×3×3 averaging (boxcar) filter (the FIRE smoothing module).
pub fn average_filter(vol: &Volume) -> Volume {
    filter_rows(vol, |vals| vals.iter().sum::<f32>() / 27.0)
}

/// Gather driver: applies `f` to every voxel's neighbourhood,
/// parallelizing over z-slabs with rayon.
fn filter_rows(vol: &Volume, f: impl Fn(&mut [f32; 27]) -> f32 + Sync) -> Volume {
    let d = vol.dims;
    let mut out = Volume::zeros(d);
    let slab = d.nx * d.ny;
    out.data.par_chunks_mut(slab).enumerate().for_each(|(z, out_slab)| {
        let mut vals = [0.0f32; 27];
        for y in 0..d.ny {
            for x in 0..d.nx {
                neighbourhood(vol, x, y, z, &mut vals);
                out_slab[x + d.nx * y] = f(&mut vals);
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtw_scan::acquire::{Scanner, ScannerConfig};
    use gtw_scan::phantom::Phantom;
    use gtw_scan::volume::Dims;
    use proptest::prelude::*;

    /// The gather-and-select median the network replaced: the oracle it
    /// must match bit for bit.
    fn reference_median(vol: &Volume) -> Volume {
        filter_rows(vol, |vals| {
            vals.select_nth_unstable_by(13, |a, b| a.partial_cmp(b).unwrap());
            vals[13]
        })
    }

    fn assert_bit_identical(got: &Volume, want: &Volume) {
        assert_eq!(got.dims, want.dims);
        for (i, (g, w)) in got.data.iter().zip(&want.data).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "voxel {:?}: {g} vs {w}", got.dims.coords(i));
        }
    }

    /// A volume whose values repeat heavily and straddle zero.
    fn arb_dup_volume() -> impl Strategy<Value = Volume> {
        (1usize..=9, 1usize..=9, 1usize..=9).prop_flat_map(|(nx, ny, nz)| {
            let d = Dims::new(nx, ny, nz);
            // Three in four values are small integers, the rest spread wide.
            let value = (0u8..4, -3i32..=3, -1000.0f32..1000.0).prop_map(|(pick, k, wide)| {
                if pick < 3 {
                    k as f32
                } else {
                    wide
                }
            });
            proptest::collection::vec(value, d.len())
                .prop_map(move |data| Volume::from_vec(d, data))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn median_network_matches_select_oracle(vol in arb_dup_volume()) {
            let got = median_filter(&vol);
            let want = reference_median(&vol);
            for (g, w) in got.data.iter().zip(&want.data) {
                prop_assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }

    #[test]
    fn median_network_matches_oracle_on_scanner_volumes() {
        let scanner = Scanner::new(ScannerConfig::paper_default(16, 1999), Phantom::standard());
        for vol in scanner.series() {
            assert_eq!(vol.dims, Dims::EPI);
            assert_bit_identical(&median_filter(&vol), &reference_median(&vol));
        }
    }

    #[test]
    fn sort9_sorts_every_zero_one_input() {
        // The 0-1 principle: a comparator network that sorts all 2^9
        // binary inputs sorts every input.
        for bits in 0u32..1 << 9 {
            let mut v: [Lanes; 9] = std::array::from_fn(|k| [((bits >> k) & 1) as f32; LANES]);
            sort9(&mut v);
            assert!(v.windows(2).all(|w| w[0][0] <= w[1][0]), "input {bits:09b}");
        }
    }

    #[test]
    fn nan_voxel_stays_inside_its_neighbourhood() {
        let d = Dims::new(11, 7, 5);
        let mut state = 4242u64;
        let data = (0..d.len())
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 40) as f32 / 1000.0 - 5.0
            })
            .collect();
        let clean = Volume::from_vec(d, data);
        let base = median_filter(&clean);
        for &(nx, ny, nz) in &[(5, 3, 2), (0, 0, 0), (10, 6, 4), (7, 0, 4)] {
            let mut dirty = clean.clone();
            *dirty.at_mut(nx, ny, nz) = f32::NAN;
            let out = median_filter(&dirty);
            for (i, (o, b)) in out.data.iter().zip(&base.data).enumerate() {
                let (x, y, z) = d.coords(i);
                let near = x.abs_diff(nx) <= 1 && y.abs_diff(ny) <= 1 && z.abs_diff(nz) <= 1;
                if !near {
                    assert_eq!(o.to_bits(), b.to_bits(), "voxel {:?}", (x, y, z));
                }
            }
        }
    }

    #[test]
    fn median_preserves_constant_volume() {
        let v = Volume::filled(Dims::new(8, 8, 8), 5.0);
        assert_eq!(median_filter(&v), v);
    }

    #[test]
    fn average_preserves_constant_volume() {
        let v = Volume::filled(Dims::new(8, 8, 8), 5.0);
        let a = average_filter(&v);
        for &x in &a.data {
            assert!((x - 5.0).abs() < 1e-5);
        }
    }

    #[test]
    fn median_removes_salt_and_pepper() {
        let d = Dims::new(10, 10, 10);
        let mut v = Volume::filled(d, 100.0);
        // Isolated impulse noise.
        *v.at_mut(5, 5, 5) = 10_000.0;
        *v.at_mut(2, 3, 4) = -10_000.0;
        let m = median_filter(&v);
        assert_eq!(m.at(5, 5, 5), 100.0);
        assert_eq!(m.at(2, 3, 4), 100.0);
    }

    #[test]
    fn average_spreads_an_impulse() {
        let d = Dims::new(9, 9, 9);
        let mut v = Volume::zeros(d);
        *v.at_mut(4, 4, 4) = 27.0;
        let a = average_filter(&v);
        // Impulse energy spreads over the 27 neighbours: each gets 1.0.
        assert!((a.at(4, 4, 4) - 1.0).abs() < 1e-5);
        assert!((a.at(3, 4, 4) - 1.0).abs() < 1e-5);
        assert!((a.at(5, 5, 5) - 1.0).abs() < 1e-5);
        assert_eq!(a.at(0, 0, 0), 0.0);
    }

    #[test]
    fn median_is_idempotent_on_step_edges() {
        // A half-space step: the median filter must not move the edge.
        let d = Dims::new(8, 8, 8);
        let mut v = Volume::zeros(d);
        for z in 0..8 {
            for y in 0..8 {
                for x in 4..8 {
                    *v.at_mut(x, y, z) = 1.0;
                }
            }
        }
        let once = median_filter(&v);
        let twice = median_filter(&once);
        assert_eq!(once, twice);
        assert_eq!(once, v, "median should preserve a clean step edge");
    }

    #[test]
    fn filters_reduce_noise_variance() {
        // Deterministic pseudo-noise around a constant.
        let d = Dims::new(12, 12, 12);
        let mut v = Volume::filled(d, 50.0);
        let mut state = 999u64;
        for x in &mut v.data {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *x += ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5;
        }
        let var = |vol: &Volume| {
            let m = vol.mean();
            vol.data.iter().map(|&x| (x - m) * (x - m)).sum::<f32>() / vol.data.len() as f32
        };
        let v0 = var(&v);
        assert!(var(&median_filter(&v)) < v0 * 0.5);
        assert!(var(&average_filter(&v)) < v0 * 0.2);
    }

    #[test]
    fn edge_clamping_no_panic_on_thin_volumes() {
        let v = Volume::filled(Dims::new(1, 1, 1), 2.0);
        assert_eq!(median_filter(&v).at(0, 0, 0), 2.0);
        let v2 = Volume::filled(Dims::new(64, 64, 1), 3.0);
        assert_eq!(average_filter(&v2).at(10, 10, 0), 3.0);
    }
}

//! Golden FIRE maps: the final correlation map of a full paper-protocol
//! series, hashed bit for bit, must not move when a module is rewritten
//! for speed.

use gtw_fire::pipeline::{FireConfig, FirePipeline};
use gtw_scan::acquire::{Scanner, ScannerConfig};
use gtw_scan::hrf::ReferenceVector;
use gtw_scan::phantom::Phantom;
use gtw_scan::volume::Volume;

/// 64-bit FNV-1a over the little-endian bit patterns of `values`, the
/// hash the benchmark's digests use for maps.
fn hash_f32s(values: &[f32]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The last map a default pipeline produces over 16 scans of `seed`.
fn final_map(seed: u64) -> Volume {
    let scanner = Scanner::new(ScannerConfig::paper_default(16, seed), Phantom::standard());
    let cfg = scanner.config();
    let mut pipe = FirePipeline::new(
        FireConfig::default(),
        cfg.dims,
        ReferenceVector::canonical(&cfg.stimulus),
    );
    let mut map = Volume::zeros(cfg.dims);
    for vol in scanner.series() {
        map = pipe.process(&vol).correlation;
    }
    map
}

#[test]
fn final_map_is_bit_stable_on_seed_1999() {
    assert_eq!(format!("{:016x}", hash_f32s(&final_map(1999).data)), "91ae4f98393131a1");
}

#[test]
fn final_map_is_bit_stable_on_seed_2718() {
    assert_eq!(format!("{:016x}", hash_f32s(&final_map(2718).data)), "b65faaa14c89797b");
}

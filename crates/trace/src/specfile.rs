//! Declarative workload specifications (JSON-serialisable).
//!
//! The seven built-in presets are Rust code; [`WorkloadSpec`] exposes the
//! same generator algebra as *data*, so users can define their own
//! synthetic workloads in a JSON file and run the whole harness on them
//! without recompiling:
//!
//! ```json
//! {
//!   "name": "mydb",
//!   "seed": 42,
//!   "data_per_instr": 0.35,
//!   "store_fraction": 0.3,
//!   "code": { "footprint_kb": 64, "n_sites": 40, "body_min_bytes": 64,
//!             "body_max_bytes": 512, "mean_iters": 5.0, "zipf_theta": 1.0,
//!             "p_excursion": 0.02, "excursion_bytes": 1024 },
//!   "data": { "mixture": [
//!     { "weight": 0.7, "mean_burst": 16.0,
//!       "source": { "regions": [ { "base": 268435456, "size_kb": 8,
//!                                  "weight": 1.0, "mean_run": 4.0 } ] } },
//!     { "weight": 0.3, "mean_burst": 8.0,
//!       "source": { "chase": { "base": 1073741824, "size_kb": 256,
//!                              "p_restart": 0.005 } } }
//!   ] }
//! }
//! ```

use crate::addr::{Addr, AddrRange};
use crate::gen::chase::PermutationChase;
use crate::gen::loops::{CodeParams, CodeWalker};
use crate::gen::mixture::{MixEntry, Mixture};
use crate::gen::regions::{Region, RegionSet};
use crate::gen::stream::{StreamArray, StreamWalker};
use crate::gen::AddrSource;
use crate::workload::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error building a workload from a specification.
#[derive(Debug)]
pub enum SpecError {
    /// The JSON failed to parse.
    Parse(serde_json::Error),
    /// The parsed specification is semantically invalid.
    Invalid(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse(e) => write!(f, "workload spec failed to parse: {e}"),
            SpecError::Invalid(msg) => write!(f, "invalid workload spec: {msg}"),
        }
    }
}

impl Error for SpecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SpecError::Parse(e) => Some(e),
            SpecError::Invalid(_) => None,
        }
    }
}

impl From<serde_json::Error> for SpecError {
    fn from(e: serde_json::Error) -> Self {
        SpecError::Parse(e)
    }
}

/// Largest region, stream array or code footprint a spec may declare, in
/// KB (4 TiB): far beyond any cache in the design space, and small
/// enough that `size_kb * 1024` cannot overflow.
pub const MAX_SPACE_KB: u64 = 1 << 32;

/// Largest pointer-chase region a spec may declare, in KB (256 MiB). The
/// chase keeps a successor table with one `u32` per 16-byte line, so
/// this bounds that allocation at 64 MiB.
pub const MAX_CHASE_KB: u64 = 256 * 1024;

/// Most loop sites a code spec may declare (each is an allocation).
pub const MAX_SITES: usize = 1 << 16;

/// The byte length of a `size_kb` span starting at `base`, or an error
/// naming `field` if the size is zero, above `max_kb`, or runs past the
/// end of the 64-bit address space.
fn span_bytes(field: &str, base: u64, size_kb: u64, max_kb: u64) -> Result<u64, SpecError> {
    let bytes = size_kb
        .checked_mul(1024)
        .filter(|_| (1..=max_kb).contains(&size_kb))
        .ok_or_else(|| SpecError::Invalid(format!("{field} must be in 1..={max_kb}")))?;
    if base.checked_add(bytes).is_none() {
        return Err(SpecError::Invalid(format!(
            "{field} {size_kb} at base {base:#x} runs past the end of the address space"
        )));
    }
    Ok(bytes)
}

/// Checks what a weighted sampler needs of `weights`: each finite and
/// non-negative, with a positive, finite sum.
fn check_weights(field: &str, weights: impl IntoIterator<Item = f64>) -> Result<(), SpecError> {
    let mut sum = 0.0;
    for w in weights {
        if !(w.is_finite() && w >= 0.0) {
            return Err(SpecError::Invalid(format!("{field} weight {w} must be finite and >= 0")));
        }
        sum += w;
    }
    if !(sum > 0.0 && sum.is_finite()) {
        return Err(SpecError::Invalid(format!(
            "{field} weights must have a positive, finite sum"
        )));
    }
    Ok(())
}

/// Code-generator parameters (mirrors
/// [`CodeParams`], sized in KB for
/// convenience).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CodeSpec {
    /// Code footprint in KB.
    pub footprint_kb: u64,
    /// Number of loop sites.
    pub n_sites: usize,
    /// Minimum loop-body length in bytes.
    pub body_min_bytes: u64,
    /// Maximum loop-body length in bytes.
    pub body_max_bytes: u64,
    /// Mean loop iterations per entry.
    pub mean_iters: f64,
    /// Zipf exponent of site popularity.
    pub zipf_theta: f64,
    /// Excursion probability per transition.
    pub p_excursion: f64,
    /// Excursion length in bytes.
    pub excursion_bytes: u64,
    /// Base address of the code segment (default 0x40_0000).
    #[serde(default = "default_code_base")]
    pub base: u64,
}

fn default_code_base() -> u64 {
    0x40_0000
}

/// One weighted region of a region-set data source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionSpec {
    /// Base byte address.
    pub base: u64,
    /// Size in KB.
    pub size_kb: u64,
    /// Selection weight.
    pub weight: f64,
    /// Mean sequential run length (words).
    pub mean_run: f64,
}

/// One array of a streaming data source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamSpec {
    /// Base byte address.
    pub base: u64,
    /// Size in KB.
    pub size_kb: u64,
    /// Stride in bytes.
    pub stride_bytes: u64,
}

/// A pointer-chase data source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaseSpec {
    /// Base byte address.
    pub base: u64,
    /// Size in KB.
    pub size_kb: u64,
    /// Restart probability per access.
    pub p_restart: f64,
}

/// A component of a bursty mixture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixtureEntrySpec {
    /// Selection weight.
    pub weight: f64,
    /// Mean burst length (accesses).
    pub mean_burst: f64,
    /// The underlying source.
    pub source: DataSpec,
}

/// A data-reference source: the generator algebra as data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum DataSpec {
    /// Weighted nested working sets.
    Regions(Vec<RegionSpec>),
    /// Round-robin strided array sweeps.
    Stream(Vec<StreamSpec>),
    /// Pointer chase over a heap region.
    Chase(ChaseSpec),
    /// Bursty weighted mixture of sources.
    Mixture(Vec<MixtureEntrySpec>),
}

impl DataSpec {
    fn build(&self, rng: &mut StdRng) -> Result<Box<dyn AddrSource>, SpecError> {
        match self {
            DataSpec::Regions(rs) => {
                if rs.is_empty() {
                    return Err(SpecError::Invalid("regions list is empty".into()));
                }
                check_weights("region", rs.iter().map(|r| r.weight))?;
                let regions = rs
                    .iter()
                    .map(|r| {
                        let bytes = span_bytes("region size_kb", r.base, r.size_kb, MAX_SPACE_KB)?;
                        if r.mean_run < 1.0 {
                            return Err(SpecError::Invalid("mean_run must be >= 1".into()));
                        }
                        Ok(Region::new(
                            AddrRange::new(Addr::new(r.base), bytes),
                            r.weight,
                            r.mean_run,
                        ))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Box::new(RegionSet::new(regions)))
            }
            DataSpec::Stream(arrays) => {
                if arrays.is_empty() {
                    return Err(SpecError::Invalid("stream array list is empty".into()));
                }
                let arrays = arrays
                    .iter()
                    .map(|a| {
                        let bytes = span_bytes("stream size_kb", a.base, a.size_kb, MAX_SPACE_KB)?;
                        if a.stride_bytes == 0 || a.stride_bytes > bytes {
                            return Err(SpecError::Invalid(format!(
                                "array at {:#x}: bad stride {}",
                                a.base, a.stride_bytes
                            )));
                        }
                        Ok(StreamArray::new(
                            AddrRange::new(Addr::new(a.base), bytes),
                            a.stride_bytes,
                        ))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Box::new(StreamWalker::new(arrays)))
            }
            DataSpec::Chase(c) => {
                let bytes = span_bytes("chase size_kb", c.base, c.size_kb, MAX_CHASE_KB)?;
                if !(0.0..=1.0).contains(&c.p_restart) {
                    return Err(SpecError::Invalid("p_restart must be a probability".into()));
                }
                Ok(Box::new(PermutationChase::new(
                    AddrRange::new(Addr::new(c.base), bytes),
                    c.p_restart,
                    rng,
                )))
            }
            DataSpec::Mixture(entries) => {
                if entries.is_empty() {
                    return Err(SpecError::Invalid("mixture is empty".into()));
                }
                check_weights("mixture", entries.iter().map(|e| e.weight))?;
                let entries = entries
                    .iter()
                    .map(|e| {
                        if e.mean_burst < 1.0 {
                            return Err(SpecError::Invalid("mean_burst must be >= 1".into()));
                        }
                        Ok(MixEntry::new(e.weight, e.mean_burst, e.source.build(rng)?))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Box::new(Mixture::new(entries)))
            }
        }
    }
}

/// A complete declarative workload. See the module docs for the JSON
/// shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Workload name (reports, file stems).
    pub name: String,
    /// RNG seed — same seed, same stream.
    pub seed: u64,
    /// Probability an instruction carries a data reference.
    pub data_per_instr: f64,
    /// Fraction of data references that are stores.
    pub store_fraction: f64,
    /// Instruction-fetch generator.
    pub code: CodeSpec,
    /// Data-reference generator.
    pub data: DataSpec,
}

impl WorkloadSpec {
    /// Parses a specification from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] on malformed JSON.
    pub fn from_json(json: &str) -> Result<Self, SpecError> {
        Ok(serde_json::from_str(json)?)
    }

    /// Serialises the specification to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serialises")
    }

    /// Builds the runnable workload.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] if any parameter is out of range.
    pub fn build(&self) -> Result<Workload, SpecError> {
        if !(0.0..=1.0).contains(&self.data_per_instr) {
            return Err(SpecError::Invalid("data_per_instr must be in [0,1]".into()));
        }
        if !(0.0..=1.0).contains(&self.store_fraction) {
            return Err(SpecError::Invalid("store_fraction must be in [0,1]".into()));
        }
        let c = &self.code;
        let footprint_bytes =
            span_bytes("code footprint_kb", c.base, c.footprint_kb, MAX_SPACE_KB)?;
        if !(1..=MAX_SITES).contains(&c.n_sites) {
            return Err(SpecError::Invalid(format!("code n_sites must be in 1..={MAX_SITES}")));
        }
        if c.body_min_bytes < 4 || c.body_min_bytes > c.body_max_bytes {
            return Err(SpecError::Invalid("invalid code body bounds".into()));
        }
        if c.body_max_bytes > footprint_bytes {
            return Err(SpecError::Invalid("loop body larger than code footprint".into()));
        }
        if c.mean_iters < 1.0 || !(0.0..=1.0).contains(&c.p_excursion) {
            return Err(SpecError::Invalid("invalid loop parameters".into()));
        }
        if !(c.zipf_theta.is_finite() && c.zipf_theta >= 0.0) {
            return Err(SpecError::Invalid("code zipf_theta must be finite and >= 0".into()));
        }

        let mut layout_rng = StdRng::seed_from_u64(self.seed ^ 0xD1CE);
        let instr = Box::new(CodeWalker::new(
            CodeParams {
                footprint_bytes,
                n_sites: c.n_sites,
                body_min_bytes: c.body_min_bytes,
                body_max_bytes: c.body_max_bytes,
                mean_iters: c.mean_iters,
                zipf_theta: c.zipf_theta,
                p_excursion: c.p_excursion,
                excursion_bytes: c.excursion_bytes.max(4),
            },
            Addr::new(c.base),
            &mut layout_rng,
        ));
        let data = self.data.build(&mut layout_rng)?;
        Ok(Workload::new(
            self.name.clone(),
            self.seed,
            instr,
            data,
            self.data_per_instr,
            self.store_fraction,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "custom".into(),
            seed: 7,
            data_per_instr: 0.3,
            store_fraction: 0.25,
            code: CodeSpec {
                footprint_kb: 32,
                n_sites: 20,
                body_min_bytes: 64,
                body_max_bytes: 512,
                mean_iters: 5.0,
                zipf_theta: 1.0,
                p_excursion: 0.02,
                excursion_bytes: 512,
                base: default_code_base(),
            },
            data: DataSpec::Mixture(vec![
                MixtureEntrySpec {
                    weight: 0.7,
                    mean_burst: 16.0,
                    source: DataSpec::Regions(vec![RegionSpec {
                        base: 0x1000_0000,
                        size_kb: 8,
                        weight: 1.0,
                        mean_run: 4.0,
                    }]),
                },
                MixtureEntrySpec {
                    weight: 0.3,
                    mean_burst: 8.0,
                    source: DataSpec::Chase(ChaseSpec {
                        base: 0x4000_0000,
                        size_kb: 128,
                        p_restart: 0.005,
                    }),
                },
            ]),
        }
    }

    #[test]
    fn json_roundtrip() {
        let spec = sample_spec();
        let json = spec.to_json();
        let back = WorkloadSpec::from_json(&json).expect("parse");
        assert_eq!(back, spec);
    }

    #[test]
    fn built_workload_is_deterministic_and_respects_mix() {
        let spec = sample_spec();
        let a = spec.build().expect("build").take_instructions(2_000);
        let b = spec.build().expect("build").take_instructions(2_000);
        assert_eq!(a, b);
        let data = a.iter().filter(|r| r.data.is_some()).count();
        let dpi = data as f64 / a.len() as f64;
        assert!((dpi - 0.3).abs() < 0.05, "data per instr {dpi}");
    }

    #[test]
    fn built_workload_addresses_stay_in_declared_regions() {
        let spec = sample_spec();
        let recs = spec.build().expect("build").take_instructions(5_000);
        for r in recs {
            assert!(
                r.fetch.raw() >= 0x40_0000 && r.fetch.raw() < 0x40_0000 + 32 * 1024,
                "fetch {:#x} outside code footprint",
                r.fetch.raw()
            );
            if let Some(d) = r.data {
                let a = d.addr.raw();
                let in_regions = (0x1000_0000..0x1000_0000 + 8 * 1024).contains(&a);
                let in_chase = (0x4000_0000..0x4000_0000 + 128 * 1024).contains(&a);
                assert!(in_regions || in_chase, "data {a:#x} outside declared regions");
            }
        }
    }

    #[test]
    fn stream_spec_builds() {
        let spec = WorkloadSpec {
            data: DataSpec::Stream(vec![
                StreamSpec { base: 0x7000_0000, size_kb: 64, stride_bytes: 8 },
                StreamSpec { base: 0x7100_0000, size_kb: 64, stride_bytes: 4 },
            ]),
            ..sample_spec()
        };
        let mut w = spec.build().expect("build");
        assert_eq!(w.name(), "custom");
        let _ = w.take_instructions(100);
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut spec = sample_spec();
        spec.data_per_instr = 1.5;
        assert!(matches!(spec.build(), Err(SpecError::Invalid(_))));

        let mut spec = sample_spec();
        spec.code.body_min_bytes = 1024;
        spec.code.body_max_bytes = 64;
        assert!(matches!(spec.build(), Err(SpecError::Invalid(_))));

        let spec2 = WorkloadSpec { data: DataSpec::Regions(vec![]), ..sample_spec() };
        assert!(matches!(spec2.build(), Err(SpecError::Invalid(_))));

        let spec3 = WorkloadSpec {
            data: DataSpec::Stream(vec![StreamSpec { base: 0, size_kb: 1, stride_bytes: 0 }]),
            ..sample_spec()
        };
        assert!(matches!(spec3.build(), Err(SpecError::Invalid(_))));
    }

    /// Oversized, zero or unsamplable parameters are `SpecError::Invalid`
    /// naming the field — never a panic, a wrapped range or a huge
    /// allocation.
    #[test]
    fn out_of_range_sizes_and_weights_name_their_field() {
        let huge = 1 << 54;
        let region = |base, size_kb, weight| RegionSpec { base, size_kb, weight, mean_run: 1.0 };
        let regions =
            |rs: Vec<RegionSpec>| WorkloadSpec { data: DataSpec::Regions(rs), ..sample_spec() };
        let chase = |size_kb| WorkloadSpec {
            data: DataSpec::Chase(ChaseSpec { base: 0x4000_0000, size_kb, p_restart: 0.0 }),
            ..sample_spec()
        };
        let stream = StreamSpec { base: 0x7000_0000, size_kb: huge, stride_bytes: 8 };
        let code = |f: fn(&mut CodeSpec)| {
            let mut spec = sample_spec();
            f(&mut spec.code);
            spec
        };
        let cases = [
            (regions(vec![region(0, huge, 1.0)]), "region size_kb"),
            (regions(vec![region(0, 0, 1.0)]), "region size_kb"),
            (regions(vec![region(u64::MAX - 1023, 2, 1.0)]), "address space"),
            (regions(vec![region(0, 8, 0.0)]), "region weight"),
            (regions(vec![region(0, 8, -1.0), region(0, 8, 2.0)]), "region weight"),
            (regions(vec![region(0, 8, f64::MAX), region(0, 8, f64::MAX)]), "region weight"),
            (
                WorkloadSpec { data: DataSpec::Stream(vec![stream]), ..sample_spec() },
                "stream size_kb",
            ),
            (chase(MAX_CHASE_KB + 1), "chase size_kb"),
            (chase(134_217_728), "chase size_kb"),
            (chase(0), "chase size_kb"),
            (code(|c| c.footprint_kb = 1 << 54), "code footprint_kb"),
            (code(|c| c.n_sites = MAX_SITES + 1), "code n_sites"),
            (code(|c| c.n_sites = 0), "code n_sites"),
            (code(|c| c.zipf_theta = -2000.0), "zipf_theta"),
        ];
        for (spec, field) in cases {
            match spec.build() {
                Err(SpecError::Invalid(msg)) => assert!(msg.contains(field), "{msg:?} vs {field}"),
                other => {
                    panic!("{field}: expected SpecError::Invalid, got {:?}", other.map(|_| ()))
                }
            }
        }
        let mut spec = sample_spec();
        if let DataSpec::Mixture(entries) = &mut spec.data {
            entries.iter_mut().for_each(|e| e.weight = 0.0);
        }
        assert!(matches!(spec.build(), Err(SpecError::Invalid(m)) if m.contains("mixture weight")));
    }

    #[test]
    fn parse_error_is_reported() {
        let err = WorkloadSpec::from_json("{ not json").unwrap_err();
        assert!(matches!(err, SpecError::Parse(_)));
        assert!(err.to_string().contains("parse"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn documented_example_parses() {
        // The JSON from the module docs must stay valid.
        let json = r#"{
          "name": "mydb",
          "seed": 42,
          "data_per_instr": 0.35,
          "store_fraction": 0.3,
          "code": { "footprint_kb": 64, "n_sites": 40, "body_min_bytes": 64,
                    "body_max_bytes": 512, "mean_iters": 5.0, "zipf_theta": 1.0,
                    "p_excursion": 0.02, "excursion_bytes": 1024 },
          "data": { "mixture": [
            { "weight": 0.7, "mean_burst": 16.0,
              "source": { "regions": [ { "base": 268435456, "size_kb": 8,
                                         "weight": 1.0, "mean_run": 4.0 } ] } },
            { "weight": 0.3, "mean_burst": 8.0,
              "source": { "chase": { "base": 1073741824, "size_kb": 256,
                                     "p_restart": 0.005 } } }
          ] }
        }"#;
        let spec = WorkloadSpec::from_json(json).expect("docs example parses");
        let mut w = spec.build().expect("docs example builds");
        assert_eq!(w.name(), "mydb");
        let _ = w.take_instructions(100);
    }
}

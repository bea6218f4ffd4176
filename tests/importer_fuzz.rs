//! Seeded mutation fuzzing of every on-disk input parser.
//!
//! One reference trace (`tests/corpus/phased_trace.txt`) is encoded in
//! each importable format — the `K 0xADDR` text, `TLCREF01`, `TLCTRC01`
//! and `TLCEVT01` — and a workload spec file is added alongside. Each
//! input is then truncated, bit-flipped and spliced a fixed number of
//! times from a fixed seed, and every mutant is fed to the auto-detecting
//! importer, the compact reader, the event-trace reader and the spec-file
//! parser. Each call must return `Ok` or a typed error; a panic fails the
//! test with the input shrunk by `ddmin` to a minimal witness.

use std::panic::{catch_unwind, AssertUnwindSafe};
use tlc_cache::{Associativity, CacheConfig, L1FrontEnd, MemorySystem};
use tlc_trace::compact::{import_to_compact, read_compact_trace};
use tlc_trace::io::{read_event_trace, read_text_trace, write_event_trace, BinaryTraceWriter};
use tlc_trace::shrink::ddmin;
use tlc_trace::specfile::WorkloadSpec;
use tlc_trace::{EventArena, ImportFormat};

/// Mutants of each kind per input.
const MUTANTS: usize = 24;

/// The window the CLI's `trace import` sniffs to auto-detect a format.
const DETECT_WINDOW: usize = 4096;

/// The spec-file example from `tlc_trace::specfile`'s module docs.
const SPEC: &str = r#"{
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

/// SplitMix64: a dependency-free, fully determined mutation stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// The reference trace in every format, named.
fn seeds() -> Vec<(&'static str, Vec<u8>)> {
    let text = std::fs::read(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/phased_trace.txt"))
        .expect("committed fixture");
    let refs = read_text_trace(&text[..]).expect("fixture parses");

    let mut binary = BinaryTraceWriter::new(Vec::new()).expect("header");
    for r in &refs {
        binary.write(*r).expect("in-memory write");
    }
    let binary = binary.into_inner().expect("flush");

    let mut compact = Vec::new();
    import_to_compact(ImportFormat::Text, &text[..], &mut compact, None).expect("import");

    let l1 = CacheConfig::paper(1024, Associativity::Direct).expect("valid");
    let mut front = L1FrontEnd::new(l1);
    for r in &refs {
        front.access(*r);
    }
    let mut events = EventArena::new();
    for e in front.finish("phased").events() {
        events.push(e);
    }
    let mut event_trace = Vec::new();
    write_event_trace(&mut event_trace, &events).expect("in-memory write");

    vec![
        ("text", text),
        ("TLCREF01", binary),
        ("TLCTRC01", compact),
        ("TLCEVT01", event_trace),
        ("spec", SPEC.as_bytes().to_vec()),
    ]
}

/// `MUTANTS` truncations, bit flips and splices of `input`; a splice
/// copies a random span of `donor` over a random point of `input`.
fn mutants(input: &[u8], donor: &[u8], rng: &mut Rng) -> Vec<Vec<u8>> {
    let mut out = Vec::with_capacity(3 * MUTANTS);
    for _ in 0..MUTANTS {
        out.push(input[..rng.below(input.len())].to_vec());
    }
    for _ in 0..MUTANTS {
        let mut m = input.to_vec();
        for _ in 0..1 + rng.below(4) {
            let at = rng.below(m.len());
            m[at] ^= 1 << rng.below(8);
        }
        out.push(m);
    }
    for _ in 0..MUTANTS {
        let at = rng.below(input.len());
        let from = rng.below(donor.len());
        let len = rng.below(64.min(donor.len() - from) + 1);
        let mut m = input[..at].to_vec();
        m.extend_from_slice(&donor[from..from + len]);
        m.extend_from_slice(&input[at + len.min(input.len() - at)..]);
        out.push(m);
    }
    out
}

/// Runs every parser on `bytes`; `Err` names the first one that panicked.
fn parse_all(bytes: &[u8]) -> Result<(), &'static str> {
    type Parser = fn(&[u8]);
    let parsers: [(&str, Parser); 4] = [
        ("auto-detect import", |b| {
            let format = ImportFormat::detect(&b[..b.len().min(DETECT_WINDOW)]);
            let _ = import_to_compact(format, b, Vec::new(), None);
        }),
        ("read_compact_trace", |b| {
            let _ = read_compact_trace(b);
        }),
        ("read_event_trace", |b| {
            let _ = read_event_trace(b);
        }),
        ("spec file", |b| {
            let _ = WorkloadSpec::from_json(&String::from_utf8_lossy(b));
        }),
    ];
    for (name, parse) in parsers {
        if catch_unwind(AssertUnwindSafe(|| parse(bytes))).is_err() {
            return Err(name);
        }
    }
    Ok(())
}

#[test]
fn mutated_inputs_give_typed_errors_never_panics() {
    let seeds = seeds();
    let mut rng = Rng(0x7E57_F022);
    let mut checked = 0;
    for (i, (name, input)) in seeds.iter().enumerate() {
        let donor = &seeds[(i + 1) % seeds.len()].1;
        for (k, m) in mutants(input, donor, &mut rng).iter().enumerate() {
            if let Err(parser) = parse_all(m) {
                let witness = ddmin(m, |c| parse_all(c).is_err());
                panic!("{parser} panicked on mutant {k} of the {name} input; minimal witness {witness:?}");
            }
            checked += 1;
        }
    }
    assert_eq!(checked, seeds.len() * 3 * MUTANTS);
}

#[test]
fn unmutated_inputs_parse() {
    for (name, input) in seeds() {
        assert_eq!(parse_all(&input), Ok(()), "{name}");
    }
    let seeds = seeds();
    assert!(read_compact_trace(&seeds[2].1[..]).is_ok());
    assert!(read_event_trace(&seeds[3].1[..]).is_ok());
    assert!(WorkloadSpec::from_json(SPEC).is_ok());
}

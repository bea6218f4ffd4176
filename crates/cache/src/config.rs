//! Cache geometry and policy configuration.

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Cache associativity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Associativity {
    /// One way per set (the paper's first-level caches).
    Direct,
    /// `n`-way set-associative (the paper's second-level caches use 4).
    SetAssoc(u32),
    /// Every line in one set (victim caches).
    Full,
}

impl fmt::Display for Associativity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Associativity::Direct => f.write_str("direct-mapped"),
            Associativity::SetAssoc(n) => write!(f, "{n}-way"),
            Associativity::Full => f.write_str("fully-associative"),
        }
    }
}

/// Replacement policy for set-associative caches.
///
/// Direct-mapped caches have no replacement choice; the policy is ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReplacementKind {
    /// Least-recently-used.
    Lru,
    /// First-in first-out.
    Fifo,
    /// Pseudo-random via a 16-bit LFSR — the policy the paper used for its
    /// set-associative second-level caches (§2.1).
    PseudoRandom,
    /// Tree-based pseudo-LRU (ways must be a power of two ≤ 64).
    TreePlru,
    /// Static re-reference interval prediction (SRRIP-HP): a 2-bit RRPV
    /// per way. Fills predict a *long* re-reference interval (RRPV 2),
    /// hits promote to *near-immediate* (RRPV 0), and the victim is the
    /// lowest-indexed way at the maximum RRPV (3), ageing every way until
    /// one reaches it.
    Srrip,
}

impl ReplacementKind {
    /// Every variant, in declaration order — the policy axis for sweeps
    /// and samplers.
    pub const ALL: [ReplacementKind; 5] = [
        ReplacementKind::Lru,
        ReplacementKind::Fifo,
        ReplacementKind::PseudoRandom,
        ReplacementKind::TreePlru,
        ReplacementKind::Srrip,
    ];
}

impl fmt::Display for ReplacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReplacementKind::Lru => "LRU",
            ReplacementKind::Fifo => "FIFO",
            ReplacementKind::PseudoRandom => "pseudo-random",
            ReplacementKind::TreePlru => "tree-PLRU",
            ReplacementKind::Srrip => "SRRIP",
        })
    }
}

/// Error building a [`CacheConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A size or line length was not a power of two.
    NotPowerOfTwo {
        /// Which quantity was invalid.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// The cache cannot hold even one line per way.
    TooSmall {
        /// Total size requested.
        size_bytes: u64,
        /// Minimum required for the requested geometry.
        required: u64,
    },
    /// The way count was invalid (zero, not a power of two, or exceeding
    /// the line count).
    BadWays(u32),
    /// Tree-PLRU requires a power-of-two way count ≤ 64.
    PlruWays(u32),
    /// Lines must be at least 4 bytes: that keeps every line address of
    /// a 64-bit byte address below 2^62, inside the packed
    /// `(line << 1) | dirty` word a [`Cache`](crate::Cache) way holds.
    LineTooShort(u64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NotPowerOfTwo { what, value } => {
                write!(f, "{what} must be a power of two, got {value}")
            }
            ConfigError::TooSmall { size_bytes, required } => {
                write!(
                    f,
                    "cache of {size_bytes} bytes smaller than one line per way ({required} bytes)"
                )
            }
            ConfigError::BadWays(w) => write!(f, "invalid way count {w}"),
            ConfigError::PlruWays(w) => {
                write!(f, "tree-PLRU needs a power-of-two way count <= 64, got {w}")
            }
            ConfigError::LineTooShort(b) => {
                write!(f, "line size must be at least {MIN_LINE_BYTES} bytes, got {b}")
            }
        }
    }
}

impl Error for ConfigError {}

/// Shortest accepted line (see [`ConfigError::LineTooShort`]).
const MIN_LINE_BYTES: u64 = 4;

/// Geometry and policy of one cache.
///
/// # Examples
///
/// ```
/// use tlc_cache::{Associativity, CacheConfig, ReplacementKind};
///
/// # fn main() -> Result<(), tlc_cache::ConfigError> {
/// let l2 = CacheConfig::new(64 * 1024, 16, Associativity::SetAssoc(4),
///                           ReplacementKind::PseudoRandom)?;
/// assert_eq!(l2.ways(), 4);
/// assert_eq!(l2.num_sets(), 1024);
/// assert_eq!(l2.lines(), 4096);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheConfig {
    size_bytes: u64,
    line_bytes: u64,
    assoc: Associativity,
    replacement: ReplacementKind,
}

impl CacheConfig {
    /// Builds and validates a configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if sizes are not powers of two, lines
    /// are shorter than 4 bytes, the cache is smaller than one line per
    /// way, or the way count is invalid.
    pub fn new(
        size_bytes: u64,
        line_bytes: u64,
        assoc: Associativity,
        replacement: ReplacementKind,
    ) -> Result<Self, ConfigError> {
        if !size_bytes.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo { what: "cache size", value: size_bytes });
        }
        if !line_bytes.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo { what: "line size", value: line_bytes });
        }
        if line_bytes < MIN_LINE_BYTES {
            return Err(ConfigError::LineTooShort(line_bytes));
        }
        let lines = size_bytes / line_bytes;
        if lines == 0 {
            return Err(ConfigError::TooSmall { size_bytes, required: line_bytes });
        }
        let ways = match assoc {
            Associativity::Direct => 1,
            Associativity::Full => {
                let l = lines;
                if l > u32::MAX as u64 {
                    return Err(ConfigError::BadWays(u32::MAX));
                }
                l as u32
            }
            Associativity::SetAssoc(n) => n,
        };
        if ways == 0 || !ways.is_power_of_two() || ways as u64 > lines {
            return Err(ConfigError::BadWays(ways));
        }
        if replacement == ReplacementKind::TreePlru && (ways > 64 || !ways.is_power_of_two()) {
            return Err(ConfigError::PlruWays(ways));
        }
        Ok(CacheConfig { size_bytes, line_bytes, assoc, replacement })
    }

    /// The paper's standard configuration: 16-byte lines, the given size
    /// and associativity, pseudo-random replacement.
    ///
    /// # Errors
    ///
    /// Same as [`CacheConfig::new`].
    pub fn paper(size_bytes: u64, assoc: Associativity) -> Result<Self, ConfigError> {
        CacheConfig::new(size_bytes, 16, assoc, ReplacementKind::PseudoRandom)
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Line length in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Associativity.
    pub fn assoc(&self) -> Associativity {
        self.assoc
    }

    /// Replacement policy.
    pub fn replacement(&self) -> ReplacementKind {
        self.replacement
    }

    /// Ways per set.
    pub fn ways(&self) -> u32 {
        match self.assoc {
            Associativity::Direct => 1,
            Associativity::Full => self.lines() as u32,
            Associativity::SetAssoc(n) => n,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.lines() / self.ways() as u64
    }

    /// Total line count.
    pub fn lines(&self) -> u64 {
        self.size_bytes / self.line_bytes
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kb = self.size_bytes as f64 / 1024.0;
        write!(f, "{kb}KB {} ({}B lines, {})", self.assoc, self.line_bytes, self.replacement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_direct() {
        let c = CacheConfig::paper(8 * 1024, Associativity::Direct).unwrap();
        assert_eq!(c.ways(), 1);
        assert_eq!(c.lines(), 512);
        assert_eq!(c.num_sets(), 512);
    }

    #[test]
    fn geometry_set_assoc() {
        let c = CacheConfig::paper(8 * 1024, Associativity::SetAssoc(4)).unwrap();
        assert_eq!(c.ways(), 4);
        assert_eq!(c.num_sets(), 128);
    }

    #[test]
    fn geometry_full() {
        let c = CacheConfig::paper(1024, Associativity::Full).unwrap();
        assert_eq!(c.ways(), 64);
        assert_eq!(c.num_sets(), 1);
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(matches!(
            CacheConfig::paper(3000, Associativity::Direct),
            Err(ConfigError::NotPowerOfTwo { what: "cache size", .. })
        ));
        assert!(matches!(
            CacheConfig::new(1024, 24, Associativity::Direct, ReplacementKind::Lru),
            Err(ConfigError::NotPowerOfTwo { what: "line size", .. })
        ));
    }

    #[test]
    fn rejects_too_many_ways() {
        // 1KB of 16B lines = 64 lines; 128 ways impossible.
        assert!(matches!(
            CacheConfig::paper(1024, Associativity::SetAssoc(128)),
            Err(ConfigError::BadWays(128))
        ));
    }

    #[test]
    fn rejects_non_power_of_two_ways() {
        assert!(matches!(
            CacheConfig::paper(1024, Associativity::SetAssoc(3)),
            Err(ConfigError::BadWays(3))
        ));
    }

    #[test]
    fn rejects_tiny_cache() {
        assert!(matches!(
            CacheConfig::new(8, 16, Associativity::Direct, ReplacementKind::Lru),
            Err(ConfigError::TooSmall { .. })
        ));
    }

    #[test]
    fn rejects_lines_shorter_than_four_bytes() {
        for line in [1u64, 2] {
            assert_eq!(
                CacheConfig::new(64, line, Associativity::Direct, ReplacementKind::Lru),
                Err(ConfigError::LineTooShort(line))
            );
        }
        assert!(CacheConfig::new(64, 4, Associativity::Direct, ReplacementKind::Lru).is_ok());
        let e = CacheConfig::new(64, 1, Associativity::Direct, ReplacementKind::Lru).unwrap_err();
        assert!(e.to_string().contains("at least 4 bytes"));
    }

    #[test]
    fn plru_way_limit() {
        assert!(CacheConfig::new(4096, 16, Associativity::Full, ReplacementKind::TreePlru).is_err());
        assert!(CacheConfig::new(1024, 16, Associativity::Full, ReplacementKind::TreePlru).is_ok());
    }

    #[test]
    fn error_messages() {
        let e = CacheConfig::paper(3000, Associativity::Direct).unwrap_err();
        assert!(e.to_string().contains("power of two"));
        let e = CacheConfig::paper(1024, Associativity::SetAssoc(3)).unwrap_err();
        assert!(e.to_string().contains("way count"));
    }

    #[test]
    fn display() {
        let c = CacheConfig::paper(64 * 1024, Associativity::SetAssoc(4)).unwrap();
        assert_eq!(c.to_string(), "64KB 4-way (16B lines, pseudo-random)");
    }
}

//! Tab-separated result rows: one line per design point (or exhibit),
//! in sweep order, with every float written as its bit pattern so the
//! correctness gate can demand bit-identity.

use std::fmt::Write as _;
use tlc_cache::HierarchyStats;
use tlc_core::DesignPoint;

/// Column header of a design-point row file.
pub const POINT_HEADER: &str = "workload\tl1_bytes\tl2_bytes\tways\tpolicy\trepl\tinstructions\t\
data_refs\tl1i_misses\tl1d_misses\tl2_hits\tl2_misses\toffchip_writebacks\tarea_bits\t\
l1_cycle_bits\tl2_cycles\ttpi_bits\tcpi_bits";

/// Column header of an exhibit row file.
pub const EXHIBIT_HEADER: &str = "id\ttext";

/// One design point as a row.
pub fn point_row(p: &DesignPoint) -> String {
    let m = &p.machine;
    let (l2_bytes, ways, policy, repl) = match m.l2 {
        None => (0, 0, "-".to_string(), "-".to_string()),
        Some(s) => (s.size_bytes, s.ways, s.policy.to_string(), s.repl.to_string()),
    };
    let HierarchyStats {
        instructions,
        data_refs,
        l1i_misses,
        l1d_misses,
        l2_hits,
        l2_misses,
        offchip_writebacks,
    } = p.stats;
    format!(
        "{}\t{}\t{l2_bytes}\t{ways}\t{policy}\t{repl}\t{instructions}\t{data_refs}\t{l1i_misses}\t\
         {l1d_misses}\t{l2_hits}\t{l2_misses}\t{offchip_writebacks}\t{:016x}\t{:016x}\t{}\t\
         {:016x}\t{:016x}",
        p.workload,
        m.l1_size_bytes,
        p.area_rbe.to_bits(),
        p.l1_cycle_ns.to_bits(),
        p.l2_cycles,
        p.tpi_ns.to_bits(),
        p.cpi.to_bits(),
    )
}

/// A whole result file of design points; a point whose unit failed is
/// written as `FAILED`, which matches no reference row.
pub fn points_file(points: &[Option<DesignPoint>]) -> String {
    let mut out = String::with_capacity(points.len() * 160);
    out.push_str(POINT_HEADER);
    out.push('\n');
    for p in points {
        match p {
            Some(p) => out.push_str(&point_row(p)),
            None => out.push_str("FAILED"),
        }
        out.push('\n');
    }
    out
}

/// A whole result file of exhibit texts, escaped onto one line each; a
/// panicked exhibit is written as `FAILED`.
pub fn exhibits_file(exhibits: &[(String, Option<String>)]) -> String {
    let mut out = String::new();
    out.push_str(EXHIBIT_HEADER);
    out.push('\n');
    for (id, text) in exhibits {
        let _ = write!(out, "{id}\t");
        let Some(text) = text else {
            out.push_str("FAILED\n");
            continue;
        };
        for c in text.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c => out.push(c),
            }
        }
        out.push('\n');
    }
    out
}

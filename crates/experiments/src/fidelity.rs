//! `repro fidelity <file>` — the paper's numbers beside the ones `repro
//! all` printed.
//!
//! [`CLAIMS`] is the one place a number from the paper is written: the
//! artifact footers that print `paper: …` format theirs from it through
//! `paper`, and [`render`] reads `repro all`'s stdout and prints one row
//! per claim: the paper's number, the measured one and their ratio, a band,
//! and where the measurement comes from. It simulates nothing, so
//! `results/fidelity_paper.txt` (the table of `results/paper_scale.txt`) is
//! checked without a render.

use std::fmt::Write as _;

const TABLE2: &str = "Table II — kernel processor resource requirements per thread";
const TABLE4: &str = "Table IV — memory bandwidth per image (no caching), MB";
const FIG3: &str = "Divergence breakdown over time — PDOM Warp (conference benchmark)";
const FIG7: &str = "Divergence breakdown over time — Dynamic (conference benchmark)";
const FIG9: &str =
    "Divergence breakdown over time — Dynamic (bank conflicts) (conference benchmark)";
const FIG8: &str = "Fig. 8 — rays per second by benchmark and method";
const FIG10: &str = "Fig. 10 — branching performance vs MIMD theoretical (conference)";
const ABLATION: &str = "Ablation — §IX branch-instead-of-spawn (conference)";

/// How a claim's numbers print.
#[derive(Debug, Clone, Copy)]
enum Unit {
    /// A whole count: registers, IPC.
    Count,
    /// Mean active lanes of a 32-lane warp.
    Lanes,
    /// A ratio.
    Times,
    /// A percentage.
    Percent,
}

impl Unit {
    fn show(self, v: f64) -> String {
        match self {
            Unit::Count => format!("{v:.0}"),
            Unit::Lanes => format!("{v:.1}/32"),
            Unit::Times => format!("{v:.2}x"),
            Unit::Percent => format!("{v:.0}%"),
        }
    }
}

/// What a measured value is held to.
#[derive(Debug, Clone, Copy)]
enum Band {
    /// The paper's magnitude, with no tolerance yet: one seed cannot say
    /// how far a measurement may stray (it waits for scene-seed ensembles).
    Unmeasured,
    /// The paper's direction: the measured value lies above `than`, or
    /// below it when `above` is false.
    Direction {
        /// Above, not below.
        above: bool,
        /// What it is compared with.
        than: Than,
    },
}

/// The other side of a [`Band::Direction`].
#[derive(Debug, Clone, Copy)]
enum Than {
    /// A constant.
    Value(f64),
    /// Another claim's measured value, by id.
    Claim(&'static str),
}

const ONE: Than = Than::Value(1.0);

const fn above(than: Than) -> Band {
    Band::Direction { above: true, than }
}

const fn below(than: Than) -> Band {
    Band::Direction { above: false, than }
}

/// How a measured value is read from `repro all`'s stdout.
#[derive(Debug)]
enum Read {
    /// The `n`th token after `label` on the line of section `title` whose
    /// tokens start with `label`'s and go on with a number.
    At(&'static str, &'static str, usize),
    /// One reading over another.
    Over(&'static Read, &'static Read),
}

use Read::{At, Over};

impl Read {
    /// Where the value comes from, by the section it is read from.
    fn provenance(&self) -> &'static str {
        match *self {
            At(TABLE2, ..) => "static",
            At(TABLE4, ..) => "analytic, whole frame",
            At(FIG8, ..) => "cycles N-2N, seed 0",
            At(..) => "cycles 0-2N, seed 0",
            Over(num, _) => num.provenance(),
        }
    }
}

/// One claim of the paper.
#[derive(Debug)]
pub struct Claim {
    /// Stable key; the footers look their numbers up by it.
    pub id: &'static str,
    /// The artifact and the quantity.
    what: &'static str,
    /// The paper's number, `None` where it states a direction only.
    paper: Option<f64>,
    unit: Unit,
    band: Band,
    read: Read,
}

/// Declares [`CLAIMS`], one claim each: id, what, the paper's number,
/// unit, band, and how the measured value is read.
macro_rules! claims {
    ($($id:literal $what:literal $paper:expr, $unit:ident, $band:expr, $read:expr;)*) => {
        /// Every claim, in the order the table prints them.
        pub const CLAIMS: &[Claim] = &[$(Claim {
            id: $id,
            what: $what,
            paper: $paper,
            unit: Unit::$unit,
            band: $band,
            read: $read,
        }),*];
    };
}

claims! {
    "t2.regs.trad" "Table II registers, traditional" Some(22.0), Count, Band::Unmeasured,
        At(TABLE2, "Registers", 0);
    "t2.regs.uk" "Table II registers, μ-kernel" Some(20.0), Count,
        below(Than::Claim("t2.regs.trad")), At(TABLE2, "Registers", 1);
    "t2.regs.ukmin" "Table II registers, μ-kernel minimum" Some(16.0), Count,
        below(Than::Claim("t2.regs.uk")), At(TABLE2, "Registers", 2);
    "t4.read" "Table IV mean read increase" Some(4.4), Times, above(ONE),
        At(TABLE4, "mean read increase:", 0);
    "t4.total" "Table IV mean total increase" Some(7.3), Times, above(Than::Claim("t4.read")),
        At(TABLE4, "mean total increase:", 0);
    "fig3.ipc" "Fig. 3 IPC, PDOM warp" Some(326.0), Count, Band::Unmeasured,
        At(FIG3, "average IPC:", 0);
    // The paper's PDOM baseline runs at about 35 % SIMD efficiency.
    "fig3.lanes" "Fig. 3 mean active lanes" Some(0.35 * 32.0), Lanes, Band::Unmeasured,
        At(FIG3, "mean active lanes:", 0);
    "fig7.ipc" "Fig. 7 IPC, μ-kernels" Some(615.0), Count, Band::Unmeasured,
        At(FIG7, "average IPC:", 0);
    "fig7.lanes" "Fig. 7 mean active lanes" None, Lanes, above(Than::Claim("fig3.lanes")),
        At(FIG7, "mean active lanes:", 0);
    "fig7.ratio" "Fig. 7 IPC over Fig. 3" Some(1.9), Times, above(ONE),
        At(FIG7, "vs traditional IPC:", 3);
    "fig9.ipc" "Fig. 9 IPC, bank conflicts" Some(429.0), Count, below(Than::Claim("fig7.ipc")),
        At(FIG9, "average IPC:", 0);
    "fig9.lanes" "Fig. 9 mean active lanes" None, Lanes, above(Than::Claim("fig3.lanes")),
        At(FIG9, "mean active lanes:", 0);
    "fig9.ratio" "Fig. 9 IPC over Fig. 3" Some(1.3), Times, above(ONE),
        At(FIG9, "with-conflicts vs traditional:", 0);
    "fig8.fairyforest" "Fig. 8 rays/s gain, fairyforest" None, Times, above(ONE),
        Over(&At(FIG8, "fairyforest Dynamic", 0), &At(FIG8, "fairyforest PDOM Block", 0));
    "fig8.atrium" "Fig. 8 rays/s gain, atrium" None, Times, above(ONE),
        Over(&At(FIG8, "atrium Dynamic", 0), &At(FIG8, "atrium PDOM Block", 0));
    "fig8.conference" "Fig. 8 rays/s gain, conference" None, Times, above(ONE),
        Over(&At(FIG8, "conference Dynamic", 0), &At(FIG8, "conference PDOM Block", 0));
    "fig8.mean" "Fig. 8 mean rays/s gain" Some(1.4), Times, above(ONE),
        At(FIG8, "mean dynamic speedup over traditional hardware:", 0);
    "fig10.pdom" "Fig. 10 PDOM warp, of MIMD" None, Percent, below(Than::Claim("fig10.dyn")),
        At(FIG10, "PDOM Warp", 1);
    "fig10.dyn" "Fig. 10 μ-kernels, of MIMD" Some(45.0), Percent, Band::Unmeasured,
        At(FIG10, "Dynamic", 1);
    "fig10.dyn.ideal" "Fig. 10 μ-kernels, ideal memory, of MIMD" Some(60.0), Percent,
        Band::Unmeasured, At(FIG10, "Dynamic (ideal mem)", 1);
    "fig10.pdom.mem" "Fig. 10 PDOM IPC gain, ideal memory" None, Times,
        below(Than::Claim("fig10.dyn.mem")),
        Over(&At(FIG10, "PDOM Warp (ideal mem)", 0), &At(FIG10, "PDOM Warp", 0));
    "fig10.dyn.mem" "Fig. 10 μ-kernel IPC gain, ideal memory" None, Times, above(ONE),
        Over(&At(FIG10, "Dynamic (ideal mem)", 0), &At(FIG10, "Dynamic", 0));
    "ablation.ipc" "§IX IPC, OnDivergence over Always" None, Times, above(ONE),
        Over(&At(ABLATION, "OnDivergence", 0), &At(ABLATION, "Always", 0));
    "ablation.spawns" "§IX thread creation reduced" None, Percent, above(Than::Value(0.0)),
        At(ABLATION, "thread creation reduced by", 0);
}

fn claim(id: &str) -> &'static Claim {
    CLAIMS
        .iter()
        .find(|c| c.id == id)
        .unwrap_or_else(|| panic!("no paper claim `{id}`"))
}

/// The paper's number for claim `id`.
///
/// # Panics
///
/// Panics if there is no such claim or the paper states no number for it.
pub(crate) fn paper(id: &str) -> f64 {
    claim(id)
        .paper
        .unwrap_or_else(|| panic!("the paper states no number for `{id}`"))
}

/// One claim beside its measurement.
#[derive(Debug)]
pub struct Row {
    /// The claim.
    pub claim: &'static Claim,
    /// What `repro all` printed for it.
    pub measured: f64,
    /// Whether the paper's direction holds; `None` where the claim is a
    /// magnitude with no tolerance yet.
    pub holds: Option<bool>,
}

/// `text` cut into sections: a title (a line that does not start with a
/// space) and the lines under it.
fn sections(text: &str) -> Vec<(&str, Vec<&str>)> {
    let mut out: Vec<(&str, Vec<&str>)> = Vec::new();
    for line in text.lines() {
        if line.starts_with(' ') {
            if let Some((_, body)) = out.last_mut() {
                body.push(line);
            }
        } else if !line.is_empty() {
            out.push((line, Vec::new()));
        }
    }
    out
}

/// A printed number: `(1.30x,` reads 1.30, `57%` reads 57.
fn number(token: &str) -> Option<f64> {
    token
        .trim_start_matches('(')
        .trim_end_matches([',', 'x', '%'])
        .parse()
        .ok()
}

fn read(sections: &[(&str, Vec<&str>)], how: &Read) -> Result<f64, String> {
    match *how {
        At(title, label, n) => {
            let (_, body) = sections
                .iter()
                .find(|(t, _)| *t == title)
                .ok_or_else(|| format!("missing section `{title}`"))?;
            let label: Vec<&str> = label.split_whitespace().collect();
            body.iter()
                .map(|line| line.split_whitespace().collect::<Vec<_>>())
                .find(|tokens| {
                    tokens.starts_with(&label)
                        && tokens.get(label.len()).and_then(|t| number(t)).is_some()
                })
                .and_then(|tokens| tokens.get(label.len() + n).and_then(|t| number(t)))
                .ok_or_else(|| format!("`{title}`: no number for `{}`", label.join(" ")))
        }
        Over(num, den) => Ok(read(sections, num)? / read(sections, den)?),
    }
}

/// Every claim of [`CLAIMS`] beside its measurement in `repro all`'s
/// stdout.
///
/// # Errors
///
/// A section or a line a claim reads is missing; the error names it.
pub fn rows(text: &str) -> Result<Vec<Row>, String> {
    let sections = sections(text);
    let measured = CLAIMS
        .iter()
        .map(|c| read(&sections, &c.read))
        .collect::<Result<Vec<f64>, String>>()?;
    let value_of = |than: Than| match than {
        Than::Value(v) => v,
        Than::Claim(id) => measured[CLAIMS.iter().position(|c| c.id == id).expect("known claim")],
    };
    Ok(CLAIMS
        .iter()
        .zip(&measured)
        .map(|(claim, &m)| Row {
            claim,
            measured: m,
            holds: match claim.band {
                Band::Unmeasured => None,
                Band::Direction { above, than } => {
                    let t = value_of(than);
                    Some(if above { m > t } else { m < t })
                }
            },
        })
        .collect())
}

/// The fidelity table of `repro all`'s stdout.
///
/// # Errors
///
/// As [`rows`].
pub fn render(text: &str) -> Result<String, String> {
    let mut out = String::from("Fidelity — the paper's numbers beside repro all's\n");
    let _ = writeln!(
        out,
        "  {:<16} {:<40} {:>8} {:>9} {:>6}  {:<24} provenance",
        "claim", "what", "paper", "measured", "ratio", "band"
    );
    for row in rows(text)? {
        let c = row.claim;
        let dash = || "—".to_string();
        let band = match (c.band, row.holds) {
            (Band::Direction { above, than }, Some(holds)) => format!(
                "{} {}: {}",
                if above { '>' } else { '<' },
                match than {
                    Than::Value(v) => format!("{v}"),
                    Than::Claim(id) => id.to_string(),
                },
                if holds { "holds" } else { "fails" }
            ),
            _ => "unmeasured".to_string(),
        };
        let _ = writeln!(
            out,
            "  {:<16} {:<40} {:>8} {:>9} {:>6}  {:<24} {}",
            c.id,
            c.what,
            c.paper.map_or_else(dash, |p| c.unit.show(p)),
            c.unit.show(row.measured),
            c.paper
                .map_or_else(dash, |p| format!("{:.2}", row.measured / p)),
            band,
            c.read.provenance()
        );
    }
    out.push_str(
        "  ratio: measured over paper. N: the scale's cycle budget, 300k at --scale paper.\n  \
         seed 0: the checked-in scene generators; over scene salts 0-7 the paper-scale\n  \
         fig8.mean spread 1.12-1.56 (ROADMAP finding 2, measured once, not re-run).\n",
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_every_reference_resolves() {
        for (i, c) in CLAIMS.iter().enumerate() {
            assert!(
                CLAIMS[..i].iter().all(|d| d.id != c.id),
                "duplicate `{}`",
                c.id
            );
            if let Band::Direction {
                than: Than::Claim(id),
                ..
            } = c.band
            {
                claim(id);
            }
        }
    }

    #[test]
    fn a_missing_section_is_an_error_naming_it() {
        let text = include_str!("../../../results/quick_scale.txt");
        let cut = text.replace(FIG8, "Fig. 8 — renamed");
        let err = rows(&cut).expect_err("no Fig. 8 section");
        assert_eq!(err, format!("missing section `{FIG8}`"));
        assert!(rows(text).is_ok());
    }

    #[test]
    fn a_missing_line_is_an_error_naming_it() {
        let text = include_str!("../../../results/quick_scale.txt");
        let cut = text.replace("  average IPC:", "  mean IPC:");
        let err = rows(&cut).expect_err("no IPC line");
        assert_eq!(err, format!("`{FIG3}`: no number for `average IPC:`"));
    }

    #[test]
    fn printed_numbers_read_through_their_decoration() {
        assert_eq!(number("(1.30x,"), Some(1.30));
        assert_eq!(number("57%"), Some(57.0));
        assert_eq!(number("->"), None);
    }
}

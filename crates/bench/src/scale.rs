//! Experiment sizing.

/// Input sizes for the experiments. The paper uses 8 GiB arrays and TPC-H
//  SF 10; all reported metrics are steady-state rates, which converge at
/// MiB scale in this simulator, so the default keeps full runs under a few
/// minutes. Scale up via `ASSASIN_SCALE` (a multiplier) for longer runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Bytes per standalone-function input stream (Figure 13).
    pub standalone_bytes: usize,
    /// Bytes for the AES input (AES simulates ~70 instructions/byte, so it
    /// gets a smaller input at equal simulated fidelity).
    pub aes_bytes: usize,
    /// TPC-H scale factor for PSF and end-to-end runs.
    pub sf: f64,
    /// Bytes scanned per core-count point in the scalability sweep.
    pub scalability_bytes: usize,
    /// RNG seed for dataset generation.
    pub seed: u64,
}

impl Scale {
    /// The default experiment scale (CI-friendly).
    pub fn default_scale() -> Scale {
        Scale {
            standalone_bytes: 4 << 20,
            aes_bytes: 512 << 10,
            sf: 0.01,
            scalability_bytes: 16 << 20,
            seed: 0xA55A,
        }
    }

    /// A tiny scale for integration tests.
    pub fn test_scale() -> Scale {
        Scale {
            standalone_bytes: 256 << 10,
            aes_bytes: 64 << 10,
            sf: 0.002,
            scalability_bytes: 1 << 20,
            seed: 0xA55A,
        }
    }

    /// The default scale with every input size multiplied by `mult`.
    /// Byte sizes round down to whole 4 KiB pages, so an input stays a
    /// whole number of every kernel's records.
    pub fn scaled(mult: f64) -> Scale {
        let d = Scale::default_scale();
        let bytes = |b: usize| (b as f64 * mult / PAGE_BYTES as f64) as usize * PAGE_BYTES;
        Scale {
            standalone_bytes: bytes(d.standalone_bytes),
            aes_bytes: bytes(d.aes_bytes),
            sf: d.sf * mult,
            scalability_bytes: bytes(d.scalability_bytes),
            seed: d.seed,
        }
    }

    /// The `ASSASIN_SCALE` multiplier, 1 when unset. For binaries: a
    /// set-but-malformed value prints the error and exits with status 2
    /// rather than running at a scale nobody asked for.
    pub fn env_multiplier() -> f64 {
        let Some(value) = std::env::var_os("ASSASIN_SCALE") else {
            return 1.0;
        };
        parse_multiplier(&value.to_string_lossy()).unwrap_or_else(|e| {
            eprintln!("invalid ASSASIN_SCALE {value:?}: {e}");
            std::process::exit(2);
        })
    }

    /// The default scale multiplied by `ASSASIN_SCALE` (see
    /// [`Scale::env_multiplier`] for how a malformed value is handled).
    pub fn from_env() -> Scale {
        Scale::scaled(Scale::env_multiplier())
    }
}

/// The unit of every byte size [`Scale::scaled`] produces: the flash
/// page, a multiple of every kernel's record size.
const PAGE_BYTES: usize = 4096;

/// Why an `ASSASIN_SCALE` value was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleError {
    /// Not a number at all (`abc`, empty).
    NotANumber,
    /// `NaN` or an infinity.
    NotFinite,
    /// Zero or negative: there is nothing to generate.
    NotPositive,
    /// So small that an input would hold less than one page.
    BelowOnePage,
}

impl std::fmt::Display for ScaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ScaleError::NotANumber => "not a number",
            ScaleError::NotFinite => "not a finite number",
            ScaleError::NotPositive => "must be greater than 0",
            ScaleError::BelowOnePage => "too small: an input would be shorter than one 4 KiB page",
        })
    }
}

impl std::error::Error for ScaleError {}

/// Parses an `ASSASIN_SCALE` value: a finite multiplier that leaves every
/// input at least one page long.
///
/// # Errors
///
/// Returns which of the four rules the value breaks.
pub fn parse_multiplier(value: &str) -> Result<f64, ScaleError> {
    let mult: f64 = value.trim().parse().map_err(|_| ScaleError::NotANumber)?;
    if !mult.is_finite() {
        return Err(ScaleError::NotFinite);
    }
    if mult <= 0.0 {
        return Err(ScaleError::NotPositive);
    }
    let s = Scale::scaled(mult);
    if [s.standalone_bytes, s.aes_bytes, s.scalability_bytes].contains(&0) {
        return Err(ScaleError::BelowOnePage);
    }
    Ok(mult)
}

impl Default for Scale {
    fn default() -> Self {
        Scale::default_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_positive() {
        for s in [Scale::default_scale(), Scale::test_scale()] {
            assert!(s.standalone_bytes > 0 && s.aes_bytes > 0);
            assert!(s.sf > 0.0);
        }
    }

    #[test]
    fn multiplier_parser_rejects_what_the_generator_cannot_run() {
        assert_eq!(parse_multiplier("abc"), Err(ScaleError::NotANumber));
        assert_eq!(parse_multiplier(""), Err(ScaleError::NotANumber));
        assert_eq!(parse_multiplier("0"), Err(ScaleError::NotPositive));
        assert_eq!(parse_multiplier("-1"), Err(ScaleError::NotPositive));
        assert_eq!(parse_multiplier("NaN"), Err(ScaleError::NotFinite));
        assert_eq!(parse_multiplier("inf"), Err(ScaleError::NotFinite));
        assert_eq!(parse_multiplier("2"), Ok(2.0));
        assert_eq!(Scale::scaled(1.0), Scale::default_scale());
        // The AES input (512 KiB at scale 1) is the smallest: it reaches
        // one page at 1/128 and none below.
        assert_eq!(parse_multiplier("0.0078125"), Ok(1.0 / 128.0));
        for tiny in ["0.0078", "1e-3", "1e-5", "1e-9", "4.9e-324"] {
            assert_eq!(parse_multiplier(tiny), Err(ScaleError::BelowOnePage));
        }
        // Scaled sizes are whole pages, so whole records of every kernel:
        // 0.1 x 4 MiB would otherwise be 419,430 B.
        for mult in [0.0078125, 0.1, 0.3, 0.5, 1.0, 2.5] {
            let s = Scale::scaled(mult);
            for bytes in [s.standalone_bytes, s.aes_bytes, s.scalability_bytes] {
                assert!(bytes > 0 && bytes % PAGE_BYTES == 0, "{mult}: {bytes}");
            }
        }
    }
}

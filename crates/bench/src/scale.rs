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
    pub fn scaled(mult: f64) -> Scale {
        let d = Scale::default_scale();
        Scale {
            standalone_bytes: (d.standalone_bytes as f64 * mult) as usize,
            aes_bytes: (d.aes_bytes as f64 * mult) as usize,
            sf: d.sf * mult,
            scalability_bytes: (d.scalability_bytes as f64 * mult) as usize,
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

/// Why an `ASSASIN_SCALE` value was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleError {
    /// Not a number at all (`abc`, empty).
    NotANumber,
    /// `NaN` or an infinity.
    NotFinite,
    /// Zero or negative: there is nothing to generate.
    NotPositive,
}

impl std::fmt::Display for ScaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ScaleError::NotANumber => "not a number",
            ScaleError::NotFinite => "not a finite number",
            ScaleError::NotPositive => "must be greater than 0",
        })
    }
}

impl std::error::Error for ScaleError {}

/// Parses an `ASSASIN_SCALE` value: a finite multiplier above zero.
///
/// # Errors
///
/// Returns which of the three rules the value breaks.
pub fn parse_multiplier(value: &str) -> Result<f64, ScaleError> {
    let mult: f64 = value.trim().parse().map_err(|_| ScaleError::NotANumber)?;
    if !mult.is_finite() {
        Err(ScaleError::NotFinite)
    } else if mult <= 0.0 {
        Err(ScaleError::NotPositive)
    } else {
        Ok(mult)
    }
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
    }
}

//! Window functions for spectral analysis and FIR design.

/// The window families used across the workspace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Window {
    /// No tapering (boxcar).
    Rectangular,
    /// Hann (raised cosine to zero at the edges).
    Hann,
    /// Hamming (raised cosine with a pedestal; the FIR design default).
    Hamming,
    /// Blackman (three-term; deeper sidelobes, wider main lobe).
    Blackman,
}

impl Window {
    /// Evaluates the window at position `n` of `len` points (periodic-safe
    /// symmetric form; `len == 1` yields 1.0).
    pub fn value(self, n: usize, len: usize) -> f64 {
        if len <= 1 {
            return 1.0;
        }
        let x = n as f64 / (len - 1) as f64;
        let tau = std::f64::consts::TAU;
        match self {
            Window::Rectangular => 1.0,
            Window::Hann => 0.5 - 0.5 * (tau * x).cos(),
            Window::Hamming => 0.54 - 0.46 * (tau * x).cos(),
            Window::Blackman => 0.42 - 0.5 * (tau * x).cos() + 0.08 * (2.0 * tau * x).cos(),
        }
    }

    /// Generates the full window.
    pub fn taps(self, len: usize) -> Vec<f64> {
        (0..len).map(|n| self.value(n, len)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_and_center() {
        let n = 65;
        assert_eq!(Window::Rectangular.value(0, n), 1.0);
        assert!(Window::Hann.value(0, n).abs() < 1e-12);
        assert!(Window::Hann.value(n - 1, n).abs() < 1e-12);
        assert!((Window::Hann.value(32, n) - 1.0).abs() < 1e-12);
        // Hamming pedestal at the edges.
        assert!((Window::Hamming.value(0, n) - 0.08).abs() < 1e-12);
        // Blackman near-zero edges.
        assert!(Window::Blackman.value(0, n).abs() < 1e-9);
    }

    #[test]
    fn symmetry() {
        for w in [Window::Hann, Window::Hamming, Window::Blackman] {
            let t = w.taps(63);
            for k in 0..t.len() {
                assert!((t[k] - t[t.len() - 1 - k]).abs() < 1e-12, "{w:?} at {k}");
            }
        }
    }

    #[test]
    fn degenerate_length() {
        for w in [
            Window::Rectangular,
            Window::Hann,
            Window::Hamming,
            Window::Blackman,
        ] {
            assert_eq!(w.value(0, 1), 1.0);
            assert_eq!(w.taps(1), vec![1.0]);
        }
    }
}

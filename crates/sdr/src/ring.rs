//! Delay lines and sample-history buffers.
//!
//! Three fixed-size circular structures used by the FPGA core model:
//! a pure delay ([`DelayLine`], the `Z^-64` block of the energy
//! differentiator), a running-sum window ([`MovingSum`], the 32-sample energy
//! accumulator) and a replay capture buffer ([`ReplayBuffer`], the
//! "repeat the last 512 received samples" jamming waveform source).

use crate::complex::IqI16;

/// A fixed-length delay line: `push` returns the element pushed `len` calls ago.
#[derive(Clone, Debug)]
pub struct DelayLine<T: Copy + Default> {
    buf: Vec<T>,
    pos: usize,
}

impl<T: Copy + Default> DelayLine<T> {
    /// Creates a delay of `len` elements, initially filled with `T::default()`.
    ///
    /// # Panics
    /// Panics if `len == 0` (use the value directly instead).
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "delay length must be positive");
        DelayLine {
            buf: vec![T::default(); len],
            pos: 0,
        }
    }

    /// Delay length in elements.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Always false; the constructor rejects zero length.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Pushes a new element, returning the one it displaces (`len` pushes old).
    /// The position wraps with a compare, not a division.
    #[inline]
    pub fn push(&mut self, v: T) -> T {
        let out = std::mem::replace(&mut self.buf[self.pos], v);
        self.pos += 1;
        if self.pos == self.buf.len() {
            self.pos = 0;
        }
        out
    }

    /// Resets contents to the default value.
    pub fn reset(&mut self) {
        self.buf.fill(T::default());
        self.pos = 0;
    }
}

/// A running sum over the most recent `len` pushed values.
///
/// This is the hardware moving-sum block: `y[n] = y[n-1] + x[n] - x[n-N]`,
/// implemented exactly as the recurrence so that fixed-point behaviour
/// (wrap-free in u64 for 31-bit energies over a 32-sample window) matches.
#[derive(Clone, Debug)]
pub struct MovingSum {
    delay: DelayLine<u64>,
    sum: u64,
}

impl MovingSum {
    /// Creates a moving sum over a `len`-sample window.
    pub fn new(len: usize) -> Self {
        MovingSum {
            delay: DelayLine::new(len),
            sum: 0,
        }
    }

    /// Window length.
    pub fn len(&self) -> usize {
        self.delay.len()
    }

    /// Always false.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Pushes a value and returns the updated window sum.
    #[inline]
    pub fn push(&mut self, x: u64) -> u64 {
        let old = self.delay.push(x);
        self.sum = self.sum + x - old;
        self.sum
    }

    /// Current window sum.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Clears the window.
    pub fn reset(&mut self) {
        self.delay.reset();
        self.sum = 0;
    }
}

/// Capture buffer holding the most recent samples for replay jamming.
///
/// The hardware stores up to 512 samples; `snapshot` returns them oldest
/// first, which is the order the replay jammer streams them out.
#[derive(Clone, Debug)]
pub struct ReplayBuffer {
    buf: Vec<IqI16>,
    pos: usize,
    filled: usize,
}

impl ReplayBuffer {
    /// Maximum capture depth of the hardware implementation.
    pub const HW_DEPTH: usize = 512;

    /// Creates a replay buffer with the given capacity.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay buffer capacity must be positive");
        ReplayBuffer {
            buf: vec![IqI16::ZERO; capacity],
            pos: 0,
            filled: 0,
        }
    }

    /// Number of valid captured samples (saturates at capacity).
    pub fn len(&self) -> usize {
        self.filled
    }

    /// True when nothing has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// Records one received sample.
    #[inline]
    pub fn push(&mut self, s: IqI16) {
        self.buf[self.pos] = s;
        self.pos = (self.pos + 1) % self.buf.len();
        if self.filled < self.buf.len() {
            self.filled += 1;
        }
    }

    /// Returns the captured samples, oldest first.
    pub fn snapshot(&self) -> Vec<IqI16> {
        let n = self.filled;
        let cap = self.buf.len();
        (0..n)
            .map(|k| self.buf[(self.pos + cap - n + k) % cap])
            .collect()
    }

    /// Clears the capture.
    pub fn reset(&mut self) {
        self.pos = 0;
        self.filled = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_line_delays_exactly() {
        let mut d: DelayLine<u32> = DelayLine::new(3);
        assert_eq!(d.push(1), 0);
        assert_eq!(d.push(2), 0);
        assert_eq!(d.push(3), 0);
        assert_eq!(d.push(4), 1);
        assert_eq!(d.push(5), 2);
    }

    #[test]
    fn delay_line_reset() {
        let mut d: DelayLine<u32> = DelayLine::new(2);
        d.push(7);
        d.reset();
        assert_eq!(d.push(1), 0);
        assert_eq!(d.push(2), 0);
        assert_eq!(d.push(3), 1);
    }

    #[test]
    fn moving_sum_matches_window() {
        let mut m = MovingSum::new(4);
        let xs = [1u64, 2, 3, 4, 5, 6, 7];
        let mut outs = Vec::new();
        for &x in &xs {
            outs.push(m.push(x));
        }
        // Window sums: 1,3,6,10,14,18,22
        assert_eq!(outs, vec![1, 3, 6, 10, 14, 18, 22]);
    }

    #[test]
    fn moving_sum_recurrence_equals_direct_sum() {
        let mut m = MovingSum::new(32);
        let xs: Vec<u64> = (0..200).map(|i| (i * 7919) % 100_000).collect();
        for (n, &x) in xs.iter().enumerate() {
            let got = m.push(x);
            let lo = n.saturating_sub(31);
            let want: u64 = xs[lo..=n].iter().sum();
            assert_eq!(got, want, "at n={n}");
        }
    }

    #[test]
    fn replay_snapshot_order() {
        let mut r = ReplayBuffer::new(4);
        for k in 1..=3 {
            r.push(IqI16::new(k, -k));
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0], IqI16::new(1, -1));
        assert_eq!(snap[2], IqI16::new(3, -3));
    }

    #[test]
    fn replay_wraps_and_keeps_latest() {
        let mut r = ReplayBuffer::new(4);
        for k in 1..=10 {
            r.push(IqI16::new(k, 0));
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 4);
        let is: Vec<i16> = snap.iter().map(|s| s.i).collect();
        assert_eq!(is, vec![7, 8, 9, 10]);
    }

    #[test]
    fn replay_reset_empties() {
        let mut r = ReplayBuffer::new(2);
        r.push(IqI16::new(1, 1));
        r.reset();
        assert!(r.is_empty());
        assert!(r.snapshot().is_empty());
    }
}

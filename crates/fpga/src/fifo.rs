//! The packet-assembly FIFO (paper Fig. 1).
//!
//! The custom core's block diagram routes received samples into a "packet
//! assembly FIFO" toward the host: on a detection trigger, the hardware
//! streams a window of the triggering signal up the Ethernet path so host
//! software can inspect *what* was jammed (classification, forensics,
//! template refinement). This module models that block with hardware FIFO
//! semantics — bounded depth, drop-on-full with a sticky overflow flag —
//! plus the trigger-gated capture controller.

use rjam_sdr::complex::IqI16;

/// A bounded sample FIFO with hardware drop-on-full semantics.
#[derive(Clone, Debug)]
pub struct SampleFifo {
    buf: std::collections::VecDeque<IqI16>,
    depth: usize,
    /// Samples dropped because the FIFO was full (sticky until reset).
    overflow: u64,
    /// Deepest occupancy ever reached (sticky; sizing diagnostics).
    high_water: usize,
}

impl SampleFifo {
    /// Creates a FIFO of the given depth.
    ///
    /// # Panics
    /// Panics if `depth == 0`.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "FIFO depth must be positive");
        SampleFifo {
            buf: std::collections::VecDeque::with_capacity(depth),
            depth,
            overflow: 0,
            high_water: 0,
        }
    }

    /// Pushes a sample; on a full FIFO the sample is dropped and the
    /// overflow counter increments (hardware never blocks the datapath).
    pub fn push(&mut self, s: IqI16) {
        if self.buf.len() >= self.depth {
            self.overflow += 1;
        } else {
            self.buf.push_back(s);
            if self.buf.len() > self.high_water {
                self.high_water = self.buf.len();
            }
        }
    }

    /// Host-side read of up to `n` samples.
    pub fn pop(&mut self, n: usize) -> Vec<IqI16> {
        let take = n.min(self.buf.len());
        self.buf.drain(..take).collect()
    }

    /// Samples currently queued.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Samples dropped since construction or the last [`Self::reset`].
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Deepest occupancy reached since construction (never cleared by
    /// reads; the hardware sizing diagnostic).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Stream reset: drops queued samples and clears the sticky overflow
    /// and high-water diagnostics, keeping the configured depth — the
    /// FIFO's part of a core-wide `reset` that must leave the block
    /// indistinguishable from a freshly built one.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.overflow = 0;
        self.high_water = 0;
    }
}

/// Trigger-gated capture: pre-trigger history plus a post-trigger window,
/// the logic-analyzer idiom the FIFO feeds.
#[derive(Clone, Debug)]
pub struct TriggerCapture {
    fifo: SampleFifo,
    /// Ring of the most recent samples (pre-trigger context).
    history: std::collections::VecDeque<IqI16>,
    pre: usize,
    post: usize,
    /// Post-trigger samples still to stream for the current capture.
    streaming: usize,
    /// Completed captures count.
    captures: u64,
}

impl TriggerCapture {
    /// Creates a capture unit: `pre` samples of context before each trigger
    /// and `post` samples after, into a FIFO of `fifo_depth`.
    pub fn new(pre: usize, post: usize, fifo_depth: usize) -> Self {
        TriggerCapture {
            fifo: SampleFifo::new(fifo_depth),
            history: std::collections::VecDeque::with_capacity(pre + 1),
            pre,
            post,
            streaming: 0,
            captures: 0,
        }
    }

    /// Clocks one sample through, with the trigger line state.
    pub fn tick(&mut self, s: IqI16, trigger: bool) {
        if trigger && self.streaming == 0 {
            // Dump the pre-trigger history into the FIFO, then stream.
            for &h in &self.history {
                self.fifo.push(h);
            }
            self.streaming = self.post;
            self.captures += 1;
        }
        if self.streaming > 0 {
            self.fifo.push(s);
            self.streaming -= 1;
        }
        if self.pre > 0 {
            if self.history.len() == self.pre {
                self.history.pop_front();
            }
            self.history.push_back(s);
        }
    }

    /// Host-side FIFO access.
    pub fn fifo_mut(&mut self) -> &mut SampleFifo {
        &mut self.fifo
    }

    /// Read-only FIFO access (status registers).
    pub fn fifo(&self) -> &SampleFifo {
        &self.fifo
    }

    /// Completed (started) captures.
    pub fn captures(&self) -> u64 {
        self.captures
    }

    /// Stream reset: clears the FIFO, the pre-trigger history, any
    /// in-flight post-trigger window and the capture count, keeping the
    /// `pre`/`post`/depth configuration.
    pub fn reset(&mut self) {
        self.fifo.reset();
        self.history.clear();
        self.streaming = 0;
        self.captures = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_depth() {
        let mut f = SampleFifo::new(4);
        for k in 1..=6i16 {
            f.push(IqI16::new(k, 0));
        }
        assert_eq!(f.len(), 4);
        assert_eq!(f.overflow(), 2);
        let out = f.pop(10);
        let is: Vec<i16> = out.iter().map(|s| s.i).collect();
        assert_eq!(
            is,
            vec![1, 2, 3, 4],
            "FIFO keeps the OLDEST samples; drops new"
        );
        assert!(f.is_empty());
    }

    #[test]
    fn overflow_is_sticky_until_reset() {
        let mut f = SampleFifo::new(1);
        f.push(IqI16::ZERO);
        f.push(IqI16::ZERO);
        f.pop(1);
        f.push(IqI16::ZERO); // fits again
        assert_eq!(f.overflow(), 1);
        f.reset();
        assert_eq!(f.overflow(), 0);
    }

    #[test]
    fn capture_includes_pre_trigger_context() {
        let mut c = TriggerCapture::new(3, 2, 64);
        // Samples 1..=10; trigger at sample 6.
        for k in 1..=10i16 {
            c.tick(IqI16::new(k, 0), k == 6);
        }
        assert_eq!(c.captures(), 1);
        let out = c.fifo_mut().pop(64);
        let is: Vec<i16> = out.iter().map(|s| s.i).collect();
        // Pre-trigger history 3,4,5 then trigger sample 6 and one more.
        assert_eq!(is, vec![3, 4, 5, 6, 7]);
    }

    #[test]
    fn retrigger_during_stream_ignored() {
        let mut c = TriggerCapture::new(0, 5, 64);
        for k in 1..=10i16 {
            c.tick(IqI16::new(k, 0), k == 2 || k == 4);
        }
        assert_eq!(c.captures(), 1, "second trigger arrives mid-stream");
        assert_eq!(c.fifo_mut().pop(64).len(), 5);
    }

    #[test]
    fn separate_triggers_capture_separately() {
        let mut c = TriggerCapture::new(1, 2, 64);
        for k in 1..=20i16 {
            c.tick(IqI16::new(k, 0), k == 3 || k == 12);
        }
        assert_eq!(c.captures(), 2);
        let out = c.fifo_mut().pop(64);
        let is: Vec<i16> = out.iter().map(|s| s.i).collect();
        assert_eq!(is, vec![2, 3, 4, 11, 12, 13]);
    }

    #[test]
    fn fifo_overflow_under_sustained_triggering() {
        let mut c = TriggerCapture::new(0, 100, 32);
        for k in 0..200i16 {
            c.tick(IqI16::new(k, 0), k == 0 || k == 100);
        }
        assert!(c.fifo_mut().overflow() > 0, "a small FIFO must overflow");
        assert_eq!(c.fifo_mut().len(), 32);
    }

    #[test]
    fn high_water_mark_is_sticky() {
        let mut f = SampleFifo::new(8);
        for _ in 0..5 {
            f.push(IqI16::ZERO);
        }
        assert_eq!(f.high_water(), 5);
        f.pop(5);
        assert_eq!(f.len(), 0);
        assert_eq!(f.high_water(), 5, "draining does not lower the mark");
        for _ in 0..3 {
            f.push(IqI16::ZERO);
        }
        assert_eq!(f.high_water(), 5, "shallower refill does not raise it");
        for _ in 0..20 {
            f.push(IqI16::ZERO);
        }
        assert_eq!(f.high_water(), 8, "capped at depth even when overflowing");
    }

    #[test]
    fn zero_pre_capture() {
        let mut c = TriggerCapture::new(0, 3, 8);
        for k in 1..=5i16 {
            c.tick(IqI16::new(k, 0), k == 2);
        }
        let is: Vec<i16> = c.fifo_mut().pop(8).iter().map(|s| s.i).collect();
        assert_eq!(is, vec![2, 3, 4]);
    }
}

//! The UHD user register bus and the core's register map.
//!
//! UHD exposes a 32-bit data / 8-bit address register bus into the custom
//! DSP module ("together providing up to 255 programmable 32-bit registers").
//! The paper's design uses 24 of them for run-time updates of correlator
//! coefficients, detection thresholds, jammer settings and antenna control.
//! Host-side code (rjam-core) writes these registers; [`core::DspCore`]
//! latches them into block configuration on the next sample boundary, which
//! is how the hardware behaves ("on-the-fly jamming personalities ... with a
//! small latency equivalent to the latency of the UHD user setting bus").
//!
//! [`core::DspCore`]: crate::core::DspCore

/// Number of registers the bus can address.
pub const NUM_REGS: usize = 255;

/// Register addresses used by the core, mirroring the paper's 24-register
/// budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum RegisterMap {
    /// Cross-correlator I-rail coefficients, 64 x 3-bit packed into 6 words
    /// (addresses 0-5).
    XcorrCoeffI0 = 0,
    /// Cross-correlator Q-rail coefficients, 6 words (addresses 6-11).
    XcorrCoeffQ0 = 6,
    /// Cross-correlation detection threshold (squared-magnitude units).
    XcorrThreshold = 12,
    /// Energy-rise threshold, 16.16 fixed-point linear power ratio.
    EnergyThresholdHigh = 13,
    /// Energy-fall threshold, 16.16 fixed-point linear power ratio.
    EnergyThresholdLow = 14,
    /// Jammer control word: waveform select, enable bits, trigger mask.
    JammerControl = 15,
    /// Jam uptime in samples (1 sample = 40 ns .. 2^32 samples ~ 172 s; the
    /// paper quotes "about 40 s" for the full range at 4 cycles/sample).
    JammerUptime = 16,
    /// Delay from trigger to jam start, in samples.
    JammerDelay = 17,
    /// Trigger-combination window, in samples.
    TriggerWindow = 18,
    /// Antenna / RF front-end GPIO control.
    AntennaControl = 19,
    /// Trigger lockout (refractory) period after a detection, in samples.
    TriggerLockout = 20,
    /// Replay capture depth (1..=512 samples).
    ReplayDepth = 21,
    /// Seed for the WGN LFSR bank.
    WgnSeed = 22,
    /// Host feedback / status word (read side: synchro flags).
    HostFeedback = 23,
}

impl RegisterMap {
    /// The bus address of this register.
    pub fn addr(self) -> u8 {
        self as u8
    }
}

/// Base address of the modeled observability readback window.
///
/// The paper's design uses 24 registers (addresses 0–23) for run-time
/// control; the bus itself addresses up to 255. We model the detection
/// counters the host application displays as a *separate* read-only window
/// at the top of the address space so the control budget test
/// (`register_budget_is_24`) is untouched.
pub const OBS_WINDOW_BASE: u8 = 224;

/// Read-only observability registers (core → host), modeled after the
/// detection counters the paper's host GUI polls over the register bus.
///
/// These are *computed* readbacks: [`crate::core::DspCore::read_stat`]
/// muxes them from the core's statistics block instead of the register
/// file, exactly like status registers in RTL. When the `obs` feature is
/// disabled they all read zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum StatReg {
    /// Samples processed, low 32 bits.
    SamplesLo = 224,
    /// Samples processed, high 32 bits.
    SamplesHi = 225,
    /// Energy-rise detections.
    EnergyHighFires = 226,
    /// Energy-fall detections.
    EnergyLowFires = 227,
    /// Cross-correlation detections.
    XcorrFires = 228,
    /// Completed jam-trigger combinations.
    JamTriggers = 229,
    /// Jam bursts that reached RF output.
    BurstsStarted = 230,
    /// p99 of the trigger-to-TX latency in ns (delay-compensated),
    /// over the burst history since power-on.
    TrigToTxP99Ns = 231,
    /// Packet-assembly FIFO high-water mark, in samples.
    FifoHighWater = 232,
    /// Packet-assembly FIFO overflow (dropped samples).
    CaptureOverflow = 233,
}

impl StatReg {
    /// Every observability register, in address order.
    pub const ALL: [StatReg; 10] = [
        StatReg::SamplesLo,
        StatReg::SamplesHi,
        StatReg::EnergyHighFires,
        StatReg::EnergyLowFires,
        StatReg::XcorrFires,
        StatReg::JamTriggers,
        StatReg::BurstsStarted,
        StatReg::TrigToTxP99Ns,
        StatReg::FifoHighWater,
        StatReg::CaptureOverflow,
    ];

    /// The bus address of this register.
    pub fn addr(self) -> u8 {
        self as u8
    }
}

/// Bit assignments inside [`RegisterMap::JammerControl`]. Bits 1:0 select
/// the waveform: 0 = WGN, 1 = replay, 2 = host.
pub mod jammer_control {
    /// Jammer master enable.
    pub const ENABLE: u32 = 1 << 2;
    /// Trigger-source mask field (bits 5:3): xcorr, energy-high, energy-low.
    pub const SRC_XCORR: u32 = 1 << 3;
    /// Energy-rise trigger enable bit.
    pub const SRC_ENERGY_HIGH: u32 = 1 << 4;
    /// Energy-fall trigger enable bit.
    pub const SRC_ENERGY_LOW: u32 = 1 << 5;
    /// Sequence mode (all enabled sources must fire within the window)
    /// instead of any-of mode.
    pub const SEQUENCE_MODE: u32 = 1 << 6;
    /// Continuous mode: transmit regardless of triggers (the paper's
    /// continuous-jammer baseline on the same hardware).
    pub const CONTINUOUS: u32 = 1 << 7;
}

/// Bit assignments inside [`RegisterMap::HostFeedback`] (core -> host).
pub mod host_feedback {
    /// A cross-correlation detection occurred since the last read.
    pub const XCORR_DET: u32 = 1 << 0;
    /// An energy-rise detection occurred since the last read.
    pub const ENERGY_HIGH: u32 = 1 << 1;
    /// An energy-fall detection occurred since the last read.
    pub const ENERGY_LOW: u32 = 1 << 2;
    /// The jammer transmitted since the last read.
    pub const JAMMED: u32 = 1 << 3;
    /// The jammer is currently transmitting.
    pub const JAM_ACTIVE: u32 = 1 << 4;
}

/// The register file, with a write log for reconfiguration-latency studies.
#[derive(Clone, Debug)]
pub struct RegisterBus {
    regs: Vec<u32>,
    /// Count of host writes, used to model/report settings-bus traffic.
    writes: u64,
}

impl Default for RegisterBus {
    fn default() -> Self {
        Self::new()
    }
}

impl RegisterBus {
    /// Creates a zeroed register file.
    pub fn new() -> Self {
        RegisterBus {
            regs: vec![0; NUM_REGS],
            writes: 0,
        }
    }

    /// Host write of one 32-bit word.
    pub fn write(&mut self, addr: u8, value: u32) {
        self.regs[addr as usize] = value;
        self.writes += 1;
    }

    /// Host write that skips the bus transaction when the register already
    /// holds the value (hosts cache register state; personality switches
    /// then cost only the registers that actually change). Returns true if
    /// a write was issued.
    pub fn write_if_changed(&mut self, addr: u8, value: u32) -> bool {
        if self.regs[addr as usize] == value {
            return false;
        }
        self.write(addr, value);
        true
    }

    /// [`Self::write_if_changed`] with the symbolic map.
    pub fn write_reg_if_changed(&mut self, reg: RegisterMap, value: u32) -> bool {
        self.write_if_changed(reg.addr(), value)
    }

    /// Host write using the symbolic map.
    pub fn write_reg(&mut self, reg: RegisterMap, value: u32) {
        self.write(reg.addr(), value);
    }

    /// Read of one 32-bit word (host or core side).
    pub fn read(&self, addr: u8) -> u32 {
        self.regs[addr as usize]
    }

    /// Read using the symbolic map.
    pub fn read_reg(&self, reg: RegisterMap) -> u32 {
        self.read(reg.addr())
    }

    /// Sets bits in a register (read-modify-write, core side; not counted as
    /// a host write).
    pub fn set_bits(&mut self, reg: RegisterMap, bits: u32) {
        self.regs[reg.addr() as usize] |= bits;
    }

    /// Clears bits in a register (core side).
    pub fn clear_bits(&mut self, reg: RegisterMap, bits: u32) {
        self.regs[reg.addr() as usize] &= !bits;
    }

    /// Number of host writes so far.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Packs 64 3-bit signed coefficients into six 32-bit words and writes
    /// them starting at `base` — the format the host uses to load correlator
    /// templates over the bus.
    ///
    /// # Panics
    /// Panics unless exactly 64 coefficients in `-4..=3` are supplied.
    pub fn write_coeffs(&mut self, base: RegisterMap, coeffs: &[i8]) {
        assert_eq!(coeffs.len(), 64, "expected 64 coefficients");
        let mut words = [0u32; 6];
        for (k, &c) in coeffs.iter().enumerate() {
            assert!((-4..=3).contains(&c), "coefficient {c} out of 3-bit range");
            let bits = (c as u8 & 0x7) as u32;
            let bit_pos = k * 3;
            let word = bit_pos / 32;
            let off = bit_pos % 32;
            words[word] |= bits << off;
            if off > 29 {
                // Straddles a word boundary.
                words[word + 1] |= bits >> (32 - off);
            }
        }
        for (i, w) in words.iter().enumerate() {
            self.write_if_changed(base.addr() + i as u8, *w);
        }
    }

    /// Unpacks 64 3-bit signed coefficients starting at `base` (core side).
    pub fn read_coeffs(&self, base: RegisterMap) -> [i8; 64] {
        let words: Vec<u32> = (0..6).map(|i| self.read(base.addr() + i)).collect();
        let mut out = [0i8; 64];
        for (k, slot) in out.iter_mut().enumerate() {
            let bit_pos = k * 3;
            let word = bit_pos / 32;
            let off = bit_pos % 32;
            let mut bits = (words[word] >> off) & 0x7;
            if off > 29 {
                bits |= (words[word + 1] << (32 - off)) & 0x7;
            }
            // Sign-extend from 3 bits.
            *slot = if bits & 0x4 != 0 {
                (bits | 0xFFFF_FFF8) as i32 as i8
            } else {
                bits as i8
            };
        }
        out
    }
}

/// Converts a dB power ratio to the 16.16 fixed-point format of the energy
/// threshold registers.
pub fn db_to_fixed16(db: f64) -> u32 {
    let lin = 10f64.powf(db / 10.0);
    (lin * 65536.0).round().clamp(0.0, u32::MAX as f64) as u32
}

/// Converts a 16.16 fixed-point ratio back to dB (diagnostics).
pub fn fixed16_to_db(fixed: u32) -> f64 {
    10.0 * ((fixed as f64 / 65536.0).log10())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut bus = RegisterBus::new();
        bus.write_reg(RegisterMap::XcorrThreshold, 0xDEAD_BEEF);
        assert_eq!(bus.read_reg(RegisterMap::XcorrThreshold), 0xDEAD_BEEF);
        assert_eq!(bus.write_count(), 1);
    }

    #[test]
    fn coeff_pack_unpack_roundtrip() {
        let mut bus = RegisterBus::new();
        let coeffs: Vec<i8> = (0..64).map(|k| ((k % 8) as i8) - 4).collect();
        bus.write_coeffs(RegisterMap::XcorrCoeffI0, &coeffs);
        let got = bus.read_coeffs(RegisterMap::XcorrCoeffI0);
        assert_eq!(&got[..], &coeffs[..]);
    }

    #[test]
    fn coeff_extremes_roundtrip() {
        let mut bus = RegisterBus::new();
        let mut coeffs = vec![3i8; 64];
        for (i, c) in coeffs.iter_mut().enumerate() {
            if i % 2 == 0 {
                *c = -4;
            }
        }
        bus.write_coeffs(RegisterMap::XcorrCoeffQ0, &coeffs);
        assert_eq!(&bus.read_coeffs(RegisterMap::XcorrCoeffQ0)[..], &coeffs[..]);
    }

    #[test]
    fn coeff_writes_use_six_words_per_rail() {
        let mut bus = RegisterBus::new();
        bus.write_coeffs(RegisterMap::XcorrCoeffI0, &[1i8; 64]);
        assert_eq!(bus.write_count(), 6);
        // I rail occupies addresses 0-5; address 6 (Q base) untouched.
        assert_eq!(bus.read(6), 0);
        // Rewriting identical coefficients costs no bus traffic.
        bus.write_coeffs(RegisterMap::XcorrCoeffI0, &[1i8; 64]);
        assert_eq!(bus.write_count(), 6);
    }

    #[test]
    fn write_if_changed_skips_identical() {
        let mut bus = RegisterBus::new();
        assert!(bus.write_reg_if_changed(RegisterMap::JammerUptime, 2500));
        assert!(!bus.write_reg_if_changed(RegisterMap::JammerUptime, 2500));
        assert!(bus.write_reg_if_changed(RegisterMap::JammerUptime, 250));
        assert_eq!(bus.write_count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of 3-bit range")]
    fn rejects_wide_coefficients() {
        let mut bus = RegisterBus::new();
        bus.write_coeffs(RegisterMap::XcorrCoeffI0, &[4i8; 64]);
    }

    #[test]
    fn register_budget_is_24() {
        // The design must stay within the paper's 24-register budget:
        // highest used address is HostFeedback = 23.
        assert_eq!(RegisterMap::HostFeedback.addr(), 23);
    }

    #[test]
    fn obs_window_is_disjoint_from_control_budget() {
        // The readback window must not eat into the paper's 24 control
        // registers and must stay inside the 255 addressable registers.
        for reg in StatReg::ALL {
            assert!(reg.addr() >= OBS_WINDOW_BASE, "{reg:?} below window");
            assert!((reg.addr() as usize) < NUM_REGS, "{reg:?} beyond bus");
        }
        // Addresses are unique.
        let mut addrs: Vec<u8> = StatReg::ALL.iter().map(|r| r.addr()).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), StatReg::ALL.len());
    }

    #[test]
    fn set_clear_bits() {
        let mut bus = RegisterBus::new();
        bus.set_bits(RegisterMap::HostFeedback, host_feedback::XCORR_DET);
        bus.set_bits(RegisterMap::HostFeedback, host_feedback::JAMMED);
        assert_eq!(
            bus.read_reg(RegisterMap::HostFeedback),
            host_feedback::XCORR_DET | host_feedback::JAMMED
        );
        bus.clear_bits(RegisterMap::HostFeedback, host_feedback::XCORR_DET);
        assert_eq!(
            bus.read_reg(RegisterMap::HostFeedback),
            host_feedback::JAMMED
        );
        // Core-side bit twiddling is not host traffic.
        assert_eq!(bus.write_count(), 0);
    }

    #[test]
    fn fixed16_conversions() {
        assert_eq!(db_to_fixed16(0.0), 65536);
        let ten_db = db_to_fixed16(10.0);
        assert_eq!(ten_db, 655360);
        assert!((fixed16_to_db(ten_db) - 10.0).abs() < 0.001);
        // The register range comfortably covers the paper's 3-30 dB span.
        assert!(db_to_fixed16(30.0) < u32::MAX);
    }
}

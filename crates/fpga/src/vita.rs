//! VITA time (paper Figs 1-2 peripheral signals).
//!
//! The custom core's wrapper receives a GPS-disciplined `Vita_Time` input.
//! VITA timestamps give detections an absolute wall-clock meaning
//! (multi-sensor fusion, replay alignment).

/// Seconds/fraction timestamp in VITA-49 style, derived from the 100 MHz
/// fabric clock with a GPS-locked PPS.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct VitaTime {
    /// Integer seconds since the epoch the PPS discipline established.
    pub secs: u64,
    /// Clock ticks into the current second (0..100_000_000).
    pub ticks: u32,
}

impl VitaTime {
    /// Fabric clock frequency the tick field counts at.
    pub const TICKS_PER_SEC: u32 = 100_000_000;

    /// Builds a timestamp from an absolute cycle count and the epoch second
    /// at cycle zero.
    pub fn from_cycle(cycle: u64, epoch_secs: u64) -> Self {
        VitaTime {
            secs: epoch_secs + cycle / Self::TICKS_PER_SEC as u64,
            ticks: (cycle % Self::TICKS_PER_SEC as u64) as u32,
        }
    }

    /// Difference in clock ticks (`self - earlier`).
    pub fn ticks_since(self, earlier: VitaTime) -> i64 {
        (self.secs as i64 - earlier.secs as i64) * Self::TICKS_PER_SEC as i64
            + (self.ticks as i64 - earlier.ticks as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_to_time_conversion() {
        let t = VitaTime::from_cycle(250_000_000, 1000);
        assert_eq!(t.secs, 1002);
        assert_eq!(t.ticks, 50_000_000);
    }

    #[test]
    fn tick_difference() {
        let a = VitaTime::from_cycle(100, 10);
        let b = VitaTime::from_cycle(350, 10);
        assert_eq!(b.ticks_since(a), 250);
        assert_eq!(a.ticks_since(b), -250);
        // Across a second boundary.
        let c = VitaTime { secs: 11, ticks: 5 };
        let d = VitaTime {
            secs: 10,
            ticks: VitaTime::TICKS_PER_SEC - 5,
        };
        assert_eq!(c.ticks_since(d), 10);
    }

    #[test]
    fn ordering_follows_time() {
        let a = VitaTime { secs: 5, ticks: 99 };
        let b = VitaTime {
            secs: 5,
            ticks: 100,
        };
        let c = VitaTime { secs: 6, ticks: 0 };
        assert!(a < b && b < c);
    }
}

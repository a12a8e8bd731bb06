//! Reference LLC: a naive router over the oracle arrays, written apart
//! from `dg_system::Llc` so that the two routings check each other.

use crate::{OracleCache, OracleCompressed, OracleDoppelganger, OracleMemory};
use dg_cache::{CacheGeometry, Evicted};
use dg_mem::{ApproxRegion, BlockAddr, BlockData};
use dg_system::{ArrayConfig, LlcAccess, LlcArray, LlcCounters, SystemConfig};

/// An oracle array: the [`LlcArray`] operations plus the conservation
/// laws tying its counters to its resident state.
pub(crate) trait OracleArray: LlcArray {
    /// Panic with a description if a conservation law fails.
    fn check_conservation(&self);
}

/// Reference implementation of `dg_system::Llc`: the main array, and
/// the approximate array of the split design.
#[derive(Debug)]
pub struct OracleLlc {
    main: Box<dyn OracleArray>,
    approx: Option<Box<dyn OracleArray>>,
}

fn build(cfg: &ArrayConfig) -> Box<dyn OracleArray> {
    match *cfg {
        ArrayConfig::Conventional { bytes, ways } => {
            Box::new(OracleCache::new(CacheGeometry::from_capacity(bytes, ways)))
        }
        ArrayConfig::Doppelganger(dopp, policy) => {
            let mut doppel = OracleDoppelganger::new(dopp);
            doppel.set_data_policy(policy);
            Box::new(doppel)
        }
        ArrayConfig::Compressed(comp) => Box::new(OracleCompressed::new(comp)),
    }
}

impl OracleLlc {
    /// Build the LLC the configuration asks for.
    pub fn new(cfg: &SystemConfig) -> Self {
        let arrays = cfg.llc_arrays();
        OracleLlc { main: build(&arrays.main), approx: arrays.approx.map(|a| build(&a)) }
    }

    /// The array holding blocks annotated `region`: the approximate
    /// array for annotated blocks when there is one, else the main one.
    fn holder(&mut self, region: Option<&ApproxRegion>) -> &mut dyn OracleArray {
        if region.is_some() {
            if let Some(approx) = self.approx.as_mut() {
                return approx.as_mut();
            }
        }
        self.main.as_mut()
    }

    /// Both arrays, main first.
    fn all(&self) -> Vec<&dyn OracleArray> {
        let mut out = vec![self.main.as_ref()];
        if let Some(approx) = &self.approx {
            out.push(approx.as_ref());
        }
        out
    }

    fn all_mut(&mut self) -> Vec<&mut dyn OracleArray> {
        let mut out: Vec<&mut dyn OracleArray> = vec![self.main.as_mut()];
        if let Some(approx) = &mut self.approx {
            out.push(approx.as_mut());
        }
        out
    }

    /// Serve a read, filling from `dram` on a miss.
    pub fn read_into(
        &mut self,
        addr: BlockAddr,
        region: Option<&ApproxRegion>,
        dram: &mut OracleMemory,
        displaced: &mut Vec<Evicted>,
    ) -> LlcAccess {
        let array = self.holder(region);
        match array.lookup(addr) {
            Some(data) => LlcAccess { hit: true, data, fetched_from_memory: false },
            None => {
                let data = dram.fetch_block(addr);
                array.fill(addr, &data, false, region, &mut |e| displaced.push(e));
                LlcAccess { hit: false, data, fetched_from_memory: true }
            }
        }
    }

    /// Accept a writeback from a private cache, allocating dirty on a
    /// miss.
    pub fn writeback_into(
        &mut self,
        addr: BlockAddr,
        data: BlockData,
        region: Option<&ApproxRegion>,
        displaced: &mut Vec<Evicted>,
    ) -> LlcAccess {
        let array = self.holder(region);
        if array.write(addr, &data, region, &mut |e| displaced.push(e)) {
            return LlcAccess { hit: true, data, fetched_from_memory: false };
        }
        array.fill(addr, &data, true, region, &mut |e| displaced.push(e));
        LlcAccess { hit: false, data, fetched_from_memory: false }
    }

    /// Activity counters, shaped exactly like the optimized LLC's.
    pub fn counters(&self) -> LlcCounters {
        let mut c = LlcCounters::default();
        for a in self.all() {
            a.add_counters(&mut c);
        }
        c
    }

    /// Resident blocks, main array first.
    pub fn resident_blocks(&self) -> Vec<(BlockAddr, BlockData)> {
        let mut out = Vec::new();
        for a in self.all() {
            a.for_each_block(&mut |addr, data| out.push((addr, *data)));
        }
        out
    }

    /// Tag-sharing factor (0 without Doppelgänger arrays).
    pub fn sharing_factor(&self) -> f64 {
        self.all().into_iter().find_map(|a| a.sharing_factor()).unwrap_or(0.0)
    }

    /// Write every dirty block to `dram`, leaving the LLC clean.
    pub fn flush_dirty(&mut self, dram: &mut OracleMemory) {
        for a in self.all_mut() {
            a.flush_dirty(&mut |addr, data| dram.set_block(addr, data));
        }
    }

    /// Whether `addr` is resident (no stats).
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.all().into_iter().any(|a| a.contains(addr))
    }

    /// Verify structural invariants.
    pub fn check_invariants(&self) {
        for a in self.all() {
            a.check_invariants();
        }
    }

    /// Reset statistics.
    pub fn reset_stats(&mut self) {
        for a in self.all_mut() {
            a.reset_stats();
        }
    }

    /// Conservation laws tying the counters to the resident state, one
    /// check per array; panics with a description on violation. Run by
    /// the lockstep harness at every structural checkpoint.
    pub fn check_conservation(&self) {
        for a in self.all() {
            a.check_conservation();
        }
    }
}

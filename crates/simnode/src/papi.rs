//! Standardized PAPI preset counters.
//!
//! The paper's platform "supports 56 standardized PAPI counters along with
//! 162 native counters" and restricts itself to the standardized presets to
//! keep the measurement effort feasible (Section IV-A). This module models:
//!
//! * the full 56-preset catalogue ([`PapiCounter`]),
//! * hardware programmable-counter limits that force *multiple runs* of the
//!   same application to collect all presets ([`runs_required`]), and
//! * derivation of counter values from a region's frequency-invariant
//!   [`RegionCharacter`] plus the cycle counts of an actual execution
//!   ([`derive_counters`]). Instruction-mix counters depend only on the
//!   character (the invariance the paper exploits); cycle counters follow
//!   the execution.
//!
//! A measurement records a [`CounterSet`], the way a Score-P run records
//! the presets named in its PAPI metric list. Presets outside the set
//! read zero and cost no noise arithmetic, but still take their noise
//! draws, so the node's noise stream advances the same whatever a
//! measurement records.

use rand::rngs::StdRng;
use rand::RngCore;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

use crate::character::RegionCharacter;

/// Number of standardized presets on the simulated platform.
pub const NUM_COUNTERS: usize = 56;

/// Programmable counter registers available per run (Haswell-EP exposes
/// four general-purpose counters per core with HT off).
pub const MAX_SIMULTANEOUS: usize = 4;

/// The 56 standardized PAPI preset events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // the variants are the standard PAPI preset names
#[repr(u8)]
pub enum PapiCounter {
    TotIns,
    TotCyc,
    RefCyc,
    LdIns,
    SrIns,
    LstIns,
    BrIns,
    BrCn,
    BrUcn,
    BrTkn,
    BrNtk,
    BrMsp,
    BrPrc,
    L1Dcm,
    L1Icm,
    L1Tcm,
    L1Ldm,
    L1Stm,
    L2Dcm,
    L2Icm,
    L2Tcm,
    L2Dca,
    L2Dcr,
    L2Dcw,
    L2Ica,
    L2Icr,
    L2Tca,
    L2Tcr,
    L2Tcw,
    L2Ldm,
    L2Stm,
    L3Tcm,
    L3Tca,
    L3Dca,
    L3Dcr,
    L3Dcw,
    L3Ica,
    L3Icr,
    L3Ldm,
    CaShr,
    CaCln,
    CaItv,
    TlbDm,
    TlbIm,
    TlbTl,
    ResStl,
    StlIcy,
    FulIcy,
    StlCcy,
    FulCcy,
    FpIns,
    FpOps,
    SpOps,
    DpOps,
    VecSp,
    VecDp,
}

impl PapiCounter {
    /// All 56 presets in catalogue order.
    pub fn all() -> &'static [PapiCounter; NUM_COUNTERS] {
        use PapiCounter::*;
        &[
            TotIns, TotCyc, RefCyc, LdIns, SrIns, LstIns, BrIns, BrCn, BrUcn, BrTkn, BrNtk, BrMsp,
            BrPrc, L1Dcm, L1Icm, L1Tcm, L1Ldm, L1Stm, L2Dcm, L2Icm, L2Tcm, L2Dca, L2Dcr, L2Dcw,
            L2Ica, L2Icr, L2Tca, L2Tcr, L2Tcw, L2Ldm, L2Stm, L3Tcm, L3Tca, L3Dca, L3Dcr, L3Dcw,
            L3Ica, L3Icr, L3Ldm, CaShr, CaCln, CaItv, TlbDm, TlbIm, TlbTl, ResStl, StlIcy, FulIcy,
            StlCcy, FulCcy, FpIns, FpOps, SpOps, DpOps, VecSp, VecDp,
        ]
    }

    /// Catalogue index of this preset (the declaration order is the
    /// catalogue order).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The canonical `PAPI_*` preset name.
    pub fn name(self) -> &'static str {
        use PapiCounter::*;
        match self {
            TotIns => "PAPI_TOT_INS",
            TotCyc => "PAPI_TOT_CYC",
            RefCyc => "PAPI_REF_CYC",
            LdIns => "PAPI_LD_INS",
            SrIns => "PAPI_SR_INS",
            LstIns => "PAPI_LST_INS",
            BrIns => "PAPI_BR_INS",
            BrCn => "PAPI_BR_CN",
            BrUcn => "PAPI_BR_UCN",
            BrTkn => "PAPI_BR_TKN",
            BrNtk => "PAPI_BR_NTK",
            BrMsp => "PAPI_BR_MSP",
            BrPrc => "PAPI_BR_PRC",
            L1Dcm => "PAPI_L1_DCM",
            L1Icm => "PAPI_L1_ICM",
            L1Tcm => "PAPI_L1_TCM",
            L1Ldm => "PAPI_L1_LDM",
            L1Stm => "PAPI_L1_STM",
            L2Dcm => "PAPI_L2_DCM",
            L2Icm => "PAPI_L2_ICM",
            L2Tcm => "PAPI_L2_TCM",
            L2Dca => "PAPI_L2_DCA",
            L2Dcr => "PAPI_L2_DCR",
            L2Dcw => "PAPI_L2_DCW",
            L2Ica => "PAPI_L2_ICA",
            L2Icr => "PAPI_L2_ICR",
            L2Tca => "PAPI_L2_TCA",
            L2Tcr => "PAPI_L2_TCR",
            L2Tcw => "PAPI_L2_TCW",
            L2Ldm => "PAPI_L2_LDM",
            L2Stm => "PAPI_L2_STM",
            L3Tcm => "PAPI_L3_TCM",
            L3Tca => "PAPI_L3_TCA",
            L3Dca => "PAPI_L3_DCA",
            L3Dcr => "PAPI_L3_DCR",
            L3Dcw => "PAPI_L3_DCW",
            L3Ica => "PAPI_L3_ICA",
            L3Icr => "PAPI_L3_ICR",
            L3Ldm => "PAPI_L3_LDM",
            CaShr => "PAPI_CA_SHR",
            CaCln => "PAPI_CA_CLN",
            CaItv => "PAPI_CA_ITV",
            TlbDm => "PAPI_TLB_DM",
            TlbIm => "PAPI_TLB_IM",
            TlbTl => "PAPI_TLB_TL",
            ResStl => "PAPI_RES_STL",
            StlIcy => "PAPI_STL_ICY",
            FulIcy => "PAPI_FUL_ICY",
            StlCcy => "PAPI_STL_CCY",
            FulCcy => "PAPI_FUL_CCY",
            FpIns => "PAPI_FP_INS",
            FpOps => "PAPI_FP_OPS",
            SpOps => "PAPI_SP_OPS",
            DpOps => "PAPI_DP_OPS",
            VecSp => "PAPI_VEC_SP",
            VecDp => "PAPI_VEC_DP",
        }
    }

    /// The seven counters the paper's selection algorithm picks (Table I),
    /// in the table's order.
    pub fn paper_selected() -> [PapiCounter; 7] {
        use PapiCounter::*;
        [BrNtk, LdIns, L2Icr, BrMsp, ResStl, SrIns, L2Dcr]
    }
}

/// A set of PAPI presets: what one measurement records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CounterSet(u64);

impl CounterSet {
    /// No presets (counter recording off).
    pub const NONE: Self = Self(0);
    /// All 56 presets.
    pub const ALL: Self = Self((1 << NUM_COUNTERS) - 1);

    /// The set of the given presets.
    pub fn of(counters: &[PapiCounter]) -> Self {
        Self(counters.iter().fold(0, |bits, &c| bits | 1 << c.index()))
    }

    /// The paper's seven Table I presets.
    pub fn paper_selected() -> Self {
        Self::of(&PapiCounter::paper_selected())
    }

    /// Whether `c` is in the set.
    pub fn contains(self, c: PapiCounter) -> bool {
        self.0 & 1 << c.index() != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// Runs of the application needed to record `n` presets given the
/// [`MAX_SIMULTANEOUS`] register limit ("multiple runs of the same
/// application are required due to hardware limitations", Section IV-A).
pub fn runs_required(n: usize) -> usize {
    n.div_ceil(MAX_SIMULTANEOUS)
}

/// A full vector of counter values for one region execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterValues {
    values: Vec<f64>,
}

impl CounterValues {
    /// Zeroed values.
    pub fn zeros() -> Self {
        Self {
            values: vec![0.0; NUM_COUNTERS],
        }
    }

    /// Value of one preset.
    pub fn get(&self, c: PapiCounter) -> f64 {
        self.values[c.index()]
    }

    /// Set one preset's value.
    pub fn set(&mut self, c: PapiCounter, v: f64) {
        self.values[c.index()] = v;
    }

    /// All values in catalogue order.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Element-wise accumulation (e.g. summing region instances).
    pub fn add_assign(&mut self, other: &CounterValues) {
        for (a, b) in self.values.iter_mut().zip(&other.values) {
            *a += b;
        }
    }

    /// Scale all values (e.g. normalising by phase time as the paper does
    /// before feeding the network).
    pub fn scaled(&self, s: f64) -> CounterValues {
        Self {
            values: self.values.iter().map(|v| v * s).collect(),
        }
    }
}

/// Derive the full counter vector for one phase iteration of a region.
///
/// * `c` — the frequency-invariant workload character,
/// * `cycles` — core cycles the execution actually took (config-dependent),
/// * `stall_cycles` — cycles stalled on any resource,
/// * `ref_cycles` — cycles at the reference (nominal) clock,
/// * `rng`/`noise_sd` — relative measurement noise (PMU non-determinism);
///   pass `noise_sd = 0.0` for exact values;
/// * `recorded` — the presets the measurement records. The others read
///   zero; each still takes the uniform draws its noise sample would
///   have taken from `rng`, without the Box–Muller arithmetic, so the
///   draws after this call do not depend on `recorded`.
pub fn derive_counters(
    c: &RegionCharacter,
    cycles: f64,
    stall_cycles: f64,
    ref_cycles: f64,
    rng: &mut StdRng,
    noise_sd: f64,
    recorded: CounterSet,
) -> CounterValues {
    use PapiCounter::*;
    let ins = c.instr_per_iter;
    let mut v = CounterValues::zeros();

    // Instruction mix — invariant under frequency, the paper's key fact.
    let ld = ins * c.frac_load;
    let sr = ins * c.frac_store;
    let br = ins * c.frac_branch;
    let br_cn = br * 0.82; // conditional share of branches
    let br_ucn = br - br_cn;
    let br_ntk = br_cn * c.branch_ntk_frac;
    let br_tkn = br_cn - br_ntk;
    let br_msp = br_cn * c.branch_misp_rate;
    let fp = ins * c.frac_fp;
    let vec_ops = fp * c.frac_vec;
    let scalar_fp = fp - vec_ops;

    v.set(TotIns, ins);
    v.set(LdIns, ld);
    v.set(SrIns, sr);
    v.set(LstIns, ld + sr);
    v.set(BrIns, br);
    v.set(BrCn, br_cn);
    v.set(BrUcn, br_ucn);
    v.set(BrTkn, br_tkn);
    v.set(BrNtk, br_ntk);
    v.set(BrMsp, br_msp);
    v.set(BrPrc, br_cn - br_msp);
    v.set(FpIns, fp);
    // AVX2 FMA counts 4 DP ops per instruction.
    v.set(FpOps, scalar_fp + 4.0 * vec_ops);
    v.set(SpOps, 0.3 * (scalar_fp + 4.0 * vec_ops));
    v.set(DpOps, 0.7 * (scalar_fp + 4.0 * vec_ops));
    v.set(VecSp, 0.3 * vec_ops);
    v.set(VecDp, 0.7 * vec_ops);

    // Cache hierarchy.
    let l1d_m = ins * c.l1d_miss_per_instr;
    let l1i_m = ins * c.l2_icr_per_instr; // I-misses feed L2 I-reads
    let l2_dcr = ins * c.l2_dcr_per_instr;
    let l2_dcw = 0.4 * l2_dcr; // writebacks trail reads
    let l2_icr = ins * c.l2_icr_per_instr;
    let l2_m = ins * c.l2_miss_per_instr;
    v.set(L1Dcm, l1d_m);
    v.set(L1Icm, l1i_m);
    v.set(L1Tcm, l1d_m + l1i_m);
    v.set(L1Ldm, 0.75 * l1d_m);
    v.set(L1Stm, 0.25 * l1d_m);
    v.set(L2Dca, l2_dcr + l2_dcw);
    v.set(L2Dcr, l2_dcr);
    v.set(L2Dcw, l2_dcw);
    v.set(L2Ica, l2_icr * 1.05);
    v.set(L2Icr, l2_icr);
    v.set(L2Tca, l2_dcr + l2_dcw + l2_icr * 1.05);
    v.set(L2Tcr, l2_dcr + l2_icr);
    v.set(L2Tcw, l2_dcw);
    v.set(L2Dcm, l2_m * 0.95);
    v.set(L2Icm, l2_m * 0.05);
    v.set(L2Tcm, l2_m);
    v.set(L2Ldm, 0.75 * l2_m);
    v.set(L2Stm, 0.25 * l2_m);

    // L3 / memory: misses are DRAM lines.
    let dram_lines = c.dram_bytes_per_iter / 64.0;
    v.set(L3Tca, l2_m);
    v.set(L3Dca, l2_m * 0.95);
    v.set(L3Dcr, l2_m * 0.7);
    v.set(L3Dcw, l2_m * 0.25);
    v.set(L3Ica, l2_m * 0.05);
    v.set(L3Icr, l2_m * 0.05);
    v.set(L3Tcm, dram_lines);
    v.set(L3Ldm, 0.7 * dram_lines);

    // Coherency traffic scales with shared-line activity (rough).
    v.set(CaShr, 0.02 * l2_m);
    v.set(CaCln, 0.01 * l2_m);
    v.set(CaItv, 0.005 * l2_m);

    // TLB.
    v.set(TlbDm, 1e-4 * ins);
    v.set(TlbIm, 1e-5 * ins);
    v.set(TlbTl, 1.1e-4 * ins);

    // Cycle-domain counters — these DO follow the execution.
    v.set(TotCyc, cycles);
    v.set(RefCyc, ref_cycles);
    v.set(ResStl, stall_cycles);
    v.set(StlIcy, 0.35 * stall_cycles);
    v.set(FulIcy, (cycles - stall_cycles).max(0.0) * 0.3);
    v.set(StlCcy, 0.8 * stall_cycles);
    v.set(FulCcy, (cycles - stall_cycles).max(0.0) * 0.5);

    let normal = (noise_sd > 0.0).then(|| Normal::new(1.0, noise_sd).expect("valid noise sd"));
    for (&counter, val) in PapiCounter::all().iter().zip(&mut v.values) {
        match (recorded.contains(counter), &normal) {
            (true, Some(normal)) => *val *= normal.sample(rng).max(0.0),
            (true, None) => {}
            (false, Some(_)) => {
                skip_normal_sample(rng);
                *val = 0.0;
            }
            (false, None) => *val = 0.0,
        }
    }
    v
}

/// Advance `rng` exactly as one `Normal::sample` of the workspace's
/// `rand_distr` does (Box–Muller: a first uniform redrawn until it is
/// positive, then a second uniform) without computing the sample: no
/// `ln`, `sqrt` or `cos`.
fn skip_normal_sample(rng: &mut StdRng) {
    while rng.next_f64() <= 0.0 {}
    rng.next_f64();
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn character() -> RegionCharacter {
        RegionCharacter::builder(1e9).dram_bytes(6.4e8).build()
    }

    fn derive_exact(c: &RegionCharacter) -> CounterValues {
        let mut rng = StdRng::seed_from_u64(0);
        derive_counters(c, 5e8, 1e8, 5e8, &mut rng, 0.0, CounterSet::ALL)
    }

    #[test]
    fn catalogue_has_56_unique_names() {
        let all = PapiCounter::all();
        assert_eq!(all.len(), NUM_COUNTERS);
        let mut names: Vec<&str> = all.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_COUNTERS, "duplicate preset names");
        assert!(names.iter().all(|n| n.starts_with("PAPI_")));
    }

    #[test]
    fn index_round_trips() {
        for (i, &c) in PapiCounter::all().iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn paper_selected_counters_match_table1() {
        let names: Vec<&str> = PapiCounter::paper_selected()
            .iter()
            .map(|c| c.name())
            .collect();
        assert_eq!(
            names,
            vec![
                "PAPI_BR_NTK",
                "PAPI_LD_INS",
                "PAPI_L2_ICR",
                "PAPI_BR_MSP",
                "PAPI_RES_STL",
                "PAPI_SR_INS",
                "PAPI_L2_DCR"
            ]
        );
    }

    #[test]
    fn multiplexing_runs() {
        assert_eq!(runs_required(1), 1);
        assert_eq!(runs_required(4), 1);
        assert_eq!(runs_required(5), 2);
        assert_eq!(runs_required(NUM_COUNTERS), 14);
    }

    #[test]
    fn mix_counters_are_consistent() {
        let c = character();
        let v = derive_exact(&c);
        assert_eq!(v.get(PapiCounter::TotIns), 1e9);
        // Branch identities.
        let br_cn = v.get(PapiCounter::BrCn);
        assert!((v.get(PapiCounter::BrTkn) + v.get(PapiCounter::BrNtk) - br_cn).abs() < 1.0);
        assert!((v.get(PapiCounter::BrMsp) + v.get(PapiCounter::BrPrc) - br_cn).abs() < 1.0);
        assert!(
            (v.get(PapiCounter::BrCn) + v.get(PapiCounter::BrUcn) - v.get(PapiCounter::BrIns))
                .abs()
                < 1.0
        );
        // Load/store identity.
        assert!(
            (v.get(PapiCounter::LdIns) + v.get(PapiCounter::SrIns) - v.get(PapiCounter::LstIns))
                .abs()
                < 1.0
        );
    }

    #[test]
    fn counters_invariant_under_cycles_except_cycle_domain() {
        let c = character();
        let mut rng = StdRng::seed_from_u64(0);
        let fast = derive_counters(&c, 4e8, 0.5e8, 4e8, &mut rng, 0.0, CounterSet::ALL);
        let slow = derive_counters(&c, 9e8, 4.0e8, 9e8, &mut rng, 0.0, CounterSet::ALL);
        for &pc in PapiCounter::all() {
            use PapiCounter::*;
            let cycle_domain = matches!(
                pc,
                TotCyc | RefCyc | ResStl | StlIcy | FulIcy | StlCcy | FulCcy
            );
            if cycle_domain {
                continue;
            }
            assert_eq!(
                fast.get(pc),
                slow.get(pc),
                "{} changed with cycle count",
                pc.name()
            );
        }
        assert!(slow.get(PapiCounter::ResStl) > fast.get(PapiCounter::ResStl));
    }

    #[test]
    fn dram_traffic_sets_l3_misses() {
        let c = character();
        let v = derive_exact(&c);
        assert!((v.get(PapiCounter::L3Tcm) - 6.4e8 / 64.0).abs() < 1e-6);
    }

    #[test]
    fn noise_perturbs_but_preserves_scale() {
        let c = character();
        let mut rng = StdRng::seed_from_u64(7);
        let noisy = derive_counters(&c, 5e8, 1e8, 5e8, &mut rng, 0.01, CounterSet::ALL);
        let exact = derive_exact(&c);
        let rel = (noisy.get(PapiCounter::TotIns) - exact.get(PapiCounter::TotIns)).abs()
            / exact.get(PapiCounter::TotIns);
        assert!(rel < 0.05, "noise too large: {rel}");
        assert_ne!(
            noisy.get(PapiCounter::TotIns),
            exact.get(PapiCounter::TotIns)
        );
    }

    /// Recording fewer presets changes nothing about the recorded ones
    /// or about the noise stream: the recorded values are bit-identical
    /// to a full measurement's, the rest read zero, and the next draw
    /// from the stream is the same.
    #[test]
    fn partial_recording_keeps_values_and_the_noise_stream() {
        let c = character();
        let recorded = CounterSet::paper_selected();
        let mut full_rng = StdRng::seed_from_u64(11);
        let mut part_rng = StdRng::seed_from_u64(11);
        for _ in 0..3 {
            let full = derive_counters(&c, 5e8, 1e8, 5e8, &mut full_rng, 0.01, CounterSet::ALL);
            let part = derive_counters(&c, 5e8, 1e8, 5e8, &mut part_rng, 0.01, recorded);
            for &pc in PapiCounter::all() {
                let expect = if recorded.contains(pc) {
                    full.get(pc)
                } else {
                    0.0
                };
                assert_eq!(part.get(pc).to_bits(), expect.to_bits(), "{}", pc.name());
            }
        }
        assert_eq!(full_rng.next_u64(), part_rng.next_u64(), "stream position");
        let none = derive_counters(&c, 5e8, 1e8, 5e8, &mut part_rng, 0.0, CounterSet::NONE);
        assert!(none.as_slice().iter().all(|&v| v == 0.0));
    }

    /// The skip consumes exactly what a sample does, including the
    /// redraw of a zero first uniform.
    #[test]
    fn skipping_a_sample_consumes_what_sampling_does() {
        let normal = Normal::new(1.0, 0.01).unwrap();
        for seed in 0..64 {
            let mut sampled = StdRng::seed_from_u64(seed);
            let mut skipped = StdRng::seed_from_u64(seed);
            for _ in 0..16 {
                normal.sample(&mut sampled);
                skip_normal_sample(&mut skipped);
            }
            assert_eq!(sampled.next_u64(), skipped.next_u64(), "seed {seed}");
        }
    }

    #[test]
    fn counter_sets() {
        let sel = CounterSet::paper_selected();
        assert!(sel.contains(PapiCounter::BrNtk) && sel.contains(PapiCounter::L2Dcr));
        assert!(!sel.contains(PapiCounter::TotIns));
        assert!(PapiCounter::all()
            .iter()
            .all(|&pc| CounterSet::ALL.contains(pc)));
        assert!(CounterSet::NONE.is_empty() && !sel.is_empty());
        assert_eq!(CounterSet::of(PapiCounter::all()), CounterSet::ALL);
    }

    #[test]
    fn counter_values_ops() {
        let mut a = CounterValues::zeros();
        a.set(PapiCounter::TotIns, 10.0);
        let mut b = CounterValues::zeros();
        b.set(PapiCounter::TotIns, 5.0);
        a.add_assign(&b);
        assert_eq!(a.get(PapiCounter::TotIns), 15.0);
        let s = a.scaled(2.0);
        assert_eq!(s.get(PapiCounter::TotIns), 30.0);
        assert_eq!(a.as_slice().len(), NUM_COUNTERS);
    }
}

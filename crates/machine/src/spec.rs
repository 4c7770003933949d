//! Machine descriptions.
//!
//! Presets correspond to the paper's two systems and are built exclusively
//! from public data: the A100 whitepaper plus the measured STREAM-like rates
//! the paper itself quotes (1381 GB/s Scale bandwidth, 9.7 TFlop/s FP64,
//! machine intensity 7 Flop/B) and the Fritz/Icelake figures (179 GB/s
//! socket load bandwidth, 2705 GFlop/s AVX-512 peak, intensity 15 Flop/B,
//! turbo bins 3.4 / 3.1 / 2.6 GHz).

/// GPU hardware model (SIMT).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, for reports.
    pub name: &'static str,
    /// Threads per warp.
    pub warp_size: u32,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// 32-bit registers per SM register file.
    pub registers_per_sm: u32,
    /// Hard per-thread register limit.
    pub max_registers_per_thread: u32,
    /// Register allocation granularity per thread.
    pub register_granularity: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Threads per block used for occupancy math.
    pub threads_per_block: u32,
    /// L1/SMEM capacity per SM in bytes.
    pub l1_bytes: usize,
    /// L1 associativity.
    pub l1_assoc: usize,
    /// Device-wide L2 capacity in bytes.
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// Cache line / sector size in bytes (A100 manages 32-byte sectors).
    pub line_bytes: usize,
    /// Peak DRAM bandwidth in bytes/s (measured Scale kernel).
    pub dram_bw: f64,
    /// Peak L2 bandwidth in bytes/s.
    pub l2_bw: f64,
    /// L1 bandwidth per SM in bytes/cycle.
    pub l1_bytes_per_cycle_per_sm: f64,
    /// Average DRAM access latency in cycles.
    pub dram_latency_cycles: f64,
    /// Average L2 access latency in cycles.
    pub l2_latency_cycles: f64,
    /// Peak FP64 rate in Flop/s (FMA counted as 2).
    pub peak_fp64: f64,
    /// Warp instructions issued per cycle per SM (4 schedulers).
    pub issue_width: f64,
    /// Average issue-to-issue latency of a dependent instruction chain, in
    /// cycles — calibrates the low-occupancy issue model.
    pub dependent_issue_latency: f64,
}

impl GpuSpec {
    /// NVIDIA A100-SXM4-40GB as in the NHR@FAU "Alex" cluster.
    pub fn a100_40gb() -> Self {
        Self {
            name: "NVIDIA A100-SXM4-40GB",
            warp_size: 32,
            num_sms: 108,
            clock_hz: 1.41e9,
            registers_per_sm: 65_536,
            max_registers_per_thread: 255,
            register_granularity: 8,
            max_threads_per_sm: 2048,
            threads_per_block: 128,
            // 192 KB unified L1/shared per SM, but the *cache* portion
            // available to an OpenACC kernel after the shared-memory
            // carveout and tag/sector overheads is far smaller — the
            // paper's 0%-L1-effectiveness gathers pin it down to a few
            // tens of KB.
            l1_bytes: 48 * 1024,
            l1_assoc: 8,
            l2_bytes: 40 * 1024 * 1024,
            l2_assoc: 16,
            line_bytes: 32,
            dram_bw: 1381.0e9,
            l2_bw: 4500.0e9,
            l1_bytes_per_cycle_per_sm: 128.0,
            dram_latency_cycles: 500.0,
            l2_latency_cycles: 220.0,
            peak_fp64: 9.7e12,
            issue_width: 4.0,
            dependent_issue_latency: 8.0,
        }
    }

    /// Machine arithmetic intensity (Flop/B), ≈ 7 for the A100.
    pub fn machine_intensity(&self) -> f64 {
        self.peak_fp64 / self.dram_bw
    }

    /// Resident threads per SM for a per-thread register demand, honouring
    /// allocation granularity, the per-thread cap and block granularity.
    pub fn resident_threads_per_sm(&self, regs_per_thread: u32) -> u32 {
        let regs = regs_per_thread
            .clamp(1, self.max_registers_per_thread)
            .div_ceil(self.register_granularity)
            * self.register_granularity;
        let by_regs = self.registers_per_sm / regs;
        let blocks = (by_regs / self.threads_per_block).max(1);
        (blocks * self.threads_per_block).min(self.max_threads_per_sm)
    }

    /// Occupancy fraction in `(0, 1]` for a register demand.
    pub fn occupancy(&self, regs_per_thread: u32) -> f64 {
        self.resident_threads_per_sm(regs_per_thread) as f64 / self.max_threads_per_sm as f64
    }
}

/// One turbo bin: up to `max_active_cores`, the part sustains `clock_hz`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TurboBin {
    /// Largest active-core count for this bin.
    pub max_active_cores: u32,
    /// Sustained clock in Hz.
    pub clock_hz: f64,
}

/// CPU hardware model.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// Marketing name, for reports.
    pub name: &'static str,
    /// Physical cores per socket.
    pub cores_per_socket: u32,
    /// Sockets per node.
    pub sockets: u32,
    /// SIMD lanes for f64 (8 for AVX-512).
    pub simd_lanes: u32,
    /// FMA units per core.
    pub fma_units: u32,
    /// Load ports per core (512-bit each).
    pub load_ports: u32,
    /// Store ports per core (512-bit each).
    pub store_ports: u32,
    /// Turbo frequency bins, ascending `max_active_cores`.
    pub turbo_bins: Vec<TurboBin>,
    /// L1D size per core in bytes.
    pub l1_bytes: usize,
    /// L1D associativity.
    pub l1_assoc: usize,
    /// L2 size per core in bytes.
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// L3 size per socket in bytes.
    pub l3_bytes: usize,
    /// L3 associativity.
    pub l3_assoc: usize,
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// Sustained DRAM load bandwidth per socket in bytes/s.
    pub socket_dram_bw: f64,
    /// Sustained DRAM bandwidth achievable by a single core in bytes/s.
    pub core_dram_bw: f64,
    /// Sustained instructions per cycle for latency-bound FEM code —
    /// calibrated so the per-element cycle count tracks the instruction
    /// count, which is what the paper's three CPU variants exhibit.
    pub sustained_ipc: f64,
    /// L2-to-L1 bandwidth per core, bytes/cycle.
    pub l2_bytes_per_cycle: f64,
}

impl CpuSpec {
    /// Dual-socket Intel Xeon Platinum 8360Y node ("Fritz" at NHR@FAU).
    pub fn icelake_8360y() -> Self {
        Self {
            name: "2x Intel Xeon Platinum 8360Y (Icelake)",
            cores_per_socket: 36,
            sockets: 2,
            simd_lanes: 8,
            fma_units: 2,
            load_ports: 2,
            store_ports: 1,
            // Figure 2: full turbo to 17 workers, then 3.1, then 2.6 GHz.
            turbo_bins: vec![
                TurboBin {
                    max_active_cores: 17,
                    clock_hz: 3.4e9,
                },
                TurboBin {
                    max_active_cores: 32,
                    clock_hz: 3.1e9,
                },
                TurboBin {
                    max_active_cores: 72,
                    clock_hz: 2.6e9,
                },
            ],
            l1_bytes: 48 * 1024,
            l1_assoc: 12,
            l2_bytes: 1280 * 1024,
            l2_assoc: 20,
            l3_bytes: 54 * 1024 * 1024,
            l3_assoc: 12,
            line_bytes: 64,
            socket_dram_bw: 179.0e9,
            core_dram_bw: 13.0e9,
            sustained_ipc: 1.0,
            l2_bytes_per_cycle: 48.0,
        }
    }

    /// Peak FP64 rate of `n` cores at the turbo clock for `n` active cores.
    pub fn peak_fp64(&self, active_cores: u32) -> f64 {
        let per_cycle = (self.simd_lanes * self.fma_units * 2) as f64;
        active_cores as f64 * per_cycle * self.clock_for(active_cores)
    }

    /// Sustained clock when `active_cores` cores are busy.
    pub fn clock_for(&self, active_cores: u32) -> f64 {
        for bin in &self.turbo_bins {
            if active_cores <= bin.max_active_cores {
                return bin.clock_hz;
            }
        }
        self.turbo_bins.last().map(|b| b.clock_hz).unwrap_or(2.0e9)
    }

    /// Machine arithmetic intensity of one socket (Flop/B), ≈ 15 for Fritz.
    pub fn machine_intensity(&self) -> f64 {
        self.peak_fp64(self.cores_per_socket) / self.socket_dram_bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_machine_intensity_matches_paper() {
        let gpu = GpuSpec::a100_40gb();
        let ai = gpu.machine_intensity();
        assert!((ai - 7.0).abs() < 0.1, "intensity {ai}");
    }

    #[test]
    fn a100_occupancy_at_255_regs_is_low() {
        let gpu = GpuSpec::a100_40gb();
        // 255 regs -> 256 after granularity -> 256 threads/SM = 12.5%.
        assert_eq!(gpu.resident_threads_per_sm(255), 256);
        assert!((gpu.occupancy(255) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn a100_occupancy_at_128_regs_doubles() {
        let gpu = GpuSpec::a100_40gb();
        assert_eq!(gpu.resident_threads_per_sm(128), 512);
        assert!((gpu.occupancy(128) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn occupancy_monotone_in_register_pressure() {
        let gpu = GpuSpec::a100_40gb();
        let mut prev = f64::INFINITY;
        for regs in [32, 64, 96, 128, 148, 184, 255] {
            let occ = gpu.occupancy(regs);
            assert!(occ <= prev + 1e-12, "occupancy not monotone at {regs}");
            prev = occ;
        }
    }

    #[test]
    fn occupancy_capped_at_full() {
        let gpu = GpuSpec::a100_40gb();
        assert!((gpu.occupancy(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn icelake_machine_intensity_matches_paper() {
        // Paper measures 15 Flop/B from likwid-bench peakflops (2705 GF/s);
        // the theoretical 36-core peak is a little higher, so allow the gap.
        let cpu = CpuSpec::icelake_8360y();
        let ai = cpu.machine_intensity();
        assert!((14.0..18.0).contains(&ai), "intensity {ai}");
    }

    #[test]
    fn icelake_peak_matches_likwid_measurement() {
        // Paper: 2705 GFlop/s single socket with AVX-512 FMA.
        let cpu = CpuSpec::icelake_8360y();
        // At full 36-core turbo (2.6 GHz): 36 * 32 * 2.6e9 = 2995 GF/s; the
        // measured 2705 sits slightly below this ceiling.
        let peak = cpu.peak_fp64(36);
        assert!(peak > 2.6e12 && peak < 3.2e12, "peak {peak}");
    }

    #[test]
    fn turbo_bins_select_paper_frequencies() {
        let cpu = CpuSpec::icelake_8360y();
        assert_eq!(cpu.clock_for(1), 3.4e9);
        assert_eq!(cpu.clock_for(17), 3.4e9);
        assert_eq!(cpu.clock_for(18), 3.1e9);
        assert_eq!(cpu.clock_for(40), 2.6e9);
        assert_eq!(cpu.clock_for(72), 2.6e9);
        assert_eq!(cpu.clock_for(100), 2.6e9);
    }
}

/**
 * @file
 * Deterministic per-chip undervolting fault model.
 *
 * This is the substitution for real silicon: each chip (identified by its
 * board serial number) owns a fixed map of weak bitcells. A weak cell has
 * a failure threshold voltage in (Vcrash, Vmin); whenever the effective
 * BRAM supply is below that threshold, reads of the cell fail. The model
 * encodes every empirical law the paper measures:
 *
 *  - no faults at or above Vmin; exponential growth of the fault count
 *    from Vmin down to Vcrash (Fig 3),
 *  - 99.9% of failures read "1" as "0"; the remainder read "0" as "1"
 *    (Fig 4) - hence fault counts proportional to stored "1" density,
 *  - fault locations are fixed properties of the chip, so repeated reads
 *    see the same faults (Table II); run-to-run variation comes only from
 *    small supply jitter moving threshold-adjacent cells in and out,
 *  - per-BRAM fault counts follow the spatially-correlated heavy-tailed
 *    process-variation field (Figs 5-7),
 *  - higher temperature raises the effective voltage (Inverse Thermal
 *    Dependence), lowering fault rates and Vmin (Fig 8).
 */

#ifndef UVOLT_VMODEL_CHIP_FAULT_MODEL_HH
#define UVOLT_VMODEL_CHIP_FAULT_MODEL_HH

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "fpga/bram.hh"
#include "fpga/device.hh"
#include "fpga/fault_domain.hh"
#include "fpga/floorplan.hh"
#include "fpga/platform.hh"
#include "vmodel/fault_index.hh"
#include "vmodel/process_variation.hh"

namespace uvolt::vmodel
{

/** One weak bitcell of a chip. */
struct WeakCell
{
    std::uint16_t row;   ///< BRAM row, 0..1023
    std::uint8_t col;    ///< bit within the row, 0..15
    bool oneToZero;      ///< failure polarity (true for 99.9% of cells)
    float thresholdV;    ///< fails whenever effective voltage < threshold
};

/** Share of weak cells whose failure polarity is "1"->"0". */
constexpr double oneToZeroShare = 0.999;

/** Reference ambient for all calibration anchors (degC). */
constexpr double referenceTempC = 50.0;

/** The fixed fault personality of one physical chip. */
class ChipFaultModel
{
  public:
    /**
     * Build the chip's weak-cell map.
     * Deterministic in (spec.serialNumber, floorplan geometry, params).
     */
    ChipFaultModel(const fpga::PlatformSpec &spec,
                   const fpga::Floorplan &floorplan,
                   const VariationParams &params = {});

    const fpga::PlatformSpec &spec() const { return spec_; }

    /** Weak cells of one BRAM, sorted by (row, col). */
    const std::vector<WeakCell> &weakCells(std::uint32_t bram) const;

    /** Total weak cells on the chip (all polarities). */
    std::size_t totalWeakCells() const { return totalWeakCells_; }

    /**
     * Effective supply voltage seen by the bitcells: the rail level plus
     * the ITD temperature shift plus any per-run supply jitter.
     * @param rail_v VCCBRAM level in volts
     * @param temp_c on-board temperature in degC
     * @param jitter_v per-run supply noise in volts (0 for the median run)
     */
    double effectiveVoltage(double rail_v, double temp_c,
                            double jitter_v = 0.0) const;

    /**
     * Read one BRAM under reduced voltage: returns the 1024 observed row
     * words given the written content. Weak cells whose threshold exceeds
     * @a effective_v misread according to their polarity.
     */
    std::vector<std::uint16_t> readBram(const fpga::Bram &written,
                                        std::uint32_t bram,
                                        double effective_v) const;

    /**
     * Packed readback: the observed contents as 256 bit-packed 64-bit
     * words. The hot-path form of readBram(): one 2 KiB copy plus an
     * AND/XOR per active weak cell, no per-bitcell work.
     */
    std::vector<std::uint64_t> readBramPacked(const fpga::Bram &written,
                                              std::uint32_t bram,
                                              double effective_v) const;

    /**
     * Inject this BRAM's active faults into a packed stream in place:
     * active 1->0 cells clear their bit (AND with the inverted mask),
     * active 0->1 cells set it (OR). Equivalent to what readBram()
     * applies to the written rows.
     */
    void applyFaults(std::span<std::uint64_t> words, std::uint32_t bram,
                     double effective_v) const;

    /**
     * Count the observable faults in one BRAM for its current content
     * without materializing the read (faster path used by sweeps).
     */
    int countBramFaults(const fpga::Bram &written, std::uint32_t bram,
                        double effective_v) const;

    /**
     * Packed fault count over an arbitrary fault-domain span:
     * popcount of (written AND active 1->0 masks) plus popcount of
     * (NOT written AND active 0->1 masks).
     */
    int countFaults(fpga::WordSpan written, std::uint32_t bram,
                    double effective_v) const;

    /**
     * The legacy scalar walker: per weak cell, one threshold compare and
     * one bitcell probe. Kept as the executable specification the packed
     * path is property-tested against (and as the BitAddress-based
     * compatibility shim for exact-iteration-order consumers).
     */
    int countBramFaultsReference(const fpga::Bram &written,
                                 std::uint32_t bram,
                                 double effective_v) const;

    /**
     * Every weak cell of the chip in one descending-threshold order: what
     * a Board's FaultIndex projects onto its content. Built on first use
     * (once, even under concurrent first calls from boards sharing this
     * model), so constructing a model or a Board costs nothing extra.
     */
    const FaultOrder &faultOrder() const;

    /**
     * Expected observable fault count for the whole chip at the given
     * effective voltage, assuming every cell stores "1" (pattern 0xFFFF).
     * Analytic counterpart of the sampled map, used for model validation.
     */
    double expectedFaults(double effective_v) const;

    /** Per-BRAM expected weak-cell count at Vcrash (the variation field). */
    const std::vector<double> &vulnerability() const { return lambda_; }

  private:
    /** Precompute the per-BRAM packed ladders from cells_. */
    void buildLadders();

    fpga::PlatformSpec spec_;
    std::vector<double> lambda_;
    std::vector<std::vector<WeakCell>> cells_; // per BRAM, sorted
    std::vector<ThresholdLadder> ladder10_;    // 1->0, descending thr
    std::vector<ThresholdLadder> ladder01_;    // 0->1, descending thr
    std::size_t totalWeakCells_ = 0;
    mutable std::once_flag orderOnce_;
    mutable FaultOrder order_;
};

} // namespace uvolt::vmodel

#endif // UVOLT_VMODEL_CHIP_FAULT_MODEL_HH

#include "vmodel/chip_fault_model.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "util/logging.hh"
#include "util/rng.hh"

namespace uvolt::vmodel
{

ChipFaultModel::ChipFaultModel(const fpga::PlatformSpec &spec,
                               const fpga::Floorplan &floorplan,
                               const VariationParams &params)
    : spec_(spec), lambda_(bramVulnerability(spec, floorplan, params)),
      cells_(floorplan.bramCount())
{
    const double k = spec_.faultGrowthSlope();
    const double v_min = spec_.calib.bramVminMv / 1000.0;
    const double v_crash = spec_.calib.bramVcrashMv / 1000.0;
    // Thresholds must stay strictly below Vmin: the SAFE region is
    // fault-free by definition. 2 mV of head-room keeps the boundary
    // unambiguous under the 10 mV regulator granularity even with
    // several sigma of per-run supply jitter.
    const double threshold_cap = v_min - 0.002;

    const std::uint64_t chip_seed = hashSeed(spec_.serialNumber);

    for (std::uint32_t b = 0; b < floorplan.bramCount(); ++b) {
        // lambda_ counts *observable at 0xFFFF* faults, i.e. the 1->0
        // subset; the full weak-cell population is slightly larger.
        const double mean_cells = lambda_[b] / oneToZeroShare;
        if (mean_cells <= 0.0)
            continue;

        Rng rng(combineSeeds(chip_seed,
                             combineSeeds(hashSeed("weak-cells"), b)));
        const auto n = rng.poisson(mean_cells);
        if (n == 0)
            continue;

        // Weak bitlines of this BRAM: read-timing failures share the
        // column mux / sense-amp path, so most weak cells concentrate
        // on a few columns (params.weakColumnShare of them), the rest
        // scatter uniformly.
        const auto weak_column_count = std::max<std::uint64_t>(
            1, rng.poisson(std::max(0.0, params.meanWeakColumns - 1.0)) +
                   1);
        std::vector<int> weak_columns;
        for (std::uint64_t c = 0; c < weak_column_count; ++c) {
            weak_columns.push_back(static_cast<int>(
                rng.uniformInt(0, fpga::bramCols - 1)));
        }

        auto &list = cells_[b];
        list.reserve(n);
        std::unordered_set<std::uint32_t> used;
        used.reserve(n * 2);
        for (std::uint64_t i = 0; i < n; ++i) {
            // Unique cell position within the BRAM, column-biased.
            std::uint32_t offset;
            do {
                int col;
                if (rng.chance(params.weakColumnShare)) {
                    col = weak_columns[rng.uniformInt(
                        0, weak_columns.size() - 1)];
                } else {
                    col = static_cast<int>(
                        rng.uniformInt(0, fpga::bramCols - 1));
                }
                const auto row = static_cast<std::uint32_t>(
                    rng.uniformInt(0, fpga::bramRows - 1));
                offset = row * fpga::bramCols +
                    static_cast<std::uint32_t>(col);
            } while (!used.insert(offset).second);

            WeakCell cell;
            cell.row = static_cast<std::uint16_t>(offset / fpga::bramCols);
            cell.col = static_cast<std::uint8_t>(offset % fpga::bramCols);
            cell.oneToZero = rng.chance(oneToZeroShare);
            const double excess = rng.exponential(k);
            cell.thresholdV = static_cast<float>(
                std::min(v_crash + excess, threshold_cap));
            list.push_back(cell);
        }
        std::sort(list.begin(), list.end(),
                  [](const WeakCell &a, const WeakCell &c) {
                      return a.row != c.row ? a.row < c.row : a.col < c.col;
                  });
        totalWeakCells_ += list.size();
    }

    // Pin the chip's single most marginal cell to the cap: Vmin is a
    // *measured* boundary (first faults appear one regulator step below
    // it), so every chip realization must have at least one cell that
    // fails just under Vmin rather than leaving the boundary to Poisson
    // luck.
    WeakCell *most_marginal = nullptr;
    for (auto &list : cells_) {
        for (auto &cell : list) {
            if (!most_marginal ||
                cell.thresholdV > most_marginal->thresholdV) {
                most_marginal = &cell;
            }
        }
    }
    if (most_marginal)
        most_marginal->thresholdV = static_cast<float>(threshold_cap);

    buildLadders();
}

void
ChipFaultModel::buildLadders()
{
    ladder10_.resize(cells_.size());
    ladder01_.resize(cells_.size());
    for (std::size_t b = 0; b < cells_.size(); ++b) {
        const auto &list = cells_[b];
        // Order cells by descending threshold so the set active at any
        // voltage is a prefix. Ties can land in either order: counting
        // is a sum over the prefix and the single-bit masks are
        // disjoint, so the results are order-independent.
        std::vector<std::uint32_t> order(list.size());
        std::iota(order.begin(), order.end(), 0u);
        std::stable_sort(order.begin(), order.end(),
                         [&list](std::uint32_t a, std::uint32_t c) {
                             return list[a].thresholdV >
                                 list[c].thresholdV;
                         });
        for (std::uint32_t i : order) {
            const WeakCell &cell = list[i];
            const auto addr = fpga::BitAddress::fromBitOffset(
                static_cast<std::uint32_t>(b),
                static_cast<std::uint32_t>(cell.row) *
                        static_cast<std::uint32_t>(fpga::bramCols) +
                    cell.col);
            (cell.oneToZero ? ladder10_[b] : ladder01_[b])
                .push(cell.thresholdV, addr.wordIndex(), addr.wordMask());
        }
    }
}

const std::vector<WeakCell> &
ChipFaultModel::weakCells(std::uint32_t bram) const
{
    if (bram >= cells_.size())
        fatal("weakCells: BRAM {} out of pool of {}", bram, cells_.size());
    return cells_[bram];
}

const FaultOrder &
ChipFaultModel::faultOrder() const
{
    std::call_once(orderOnce_, [this] {
        order_ = FaultOrder::fromLadders(ladder10_, ladder01_);
    });
    return order_;
}

double
ChipFaultModel::effectiveVoltage(double rail_v, double temp_c,
                                 double jitter_v) const
{
    // Inverse Thermal Dependence: at near-threshold voltages, heating
    // lowers the transistor threshold and speeds the circuit up, which is
    // equivalent to a small supply boost.
    const double itd_boost =
        spec_.calib.itdMvPerC * (temp_c - referenceTempC) / 1000.0;
    return rail_v + itd_boost + jitter_v;
}

void
ChipFaultModel::applyFaults(std::span<std::uint64_t> words,
                            std::uint32_t bram, double effective_v) const
{
    if (bram >= ladder10_.size())
        fatal("applyFaults: BRAM {} out of pool of {}", bram,
              ladder10_.size());
    ladder10_[bram].applyFaults(words, true, effective_v);
    ladder01_[bram].applyFaults(words, false, effective_v);
}

std::vector<std::uint64_t>
ChipFaultModel::readBramPacked(const fpga::Bram &written,
                               std::uint32_t bram,
                               double effective_v) const
{
    const auto words = written.words();
    std::vector<std::uint64_t> observed(words.begin(), words.end());
    applyFaults(observed, bram, effective_v);
    return observed;
}

std::vector<std::uint16_t>
ChipFaultModel::readBram(const fpga::Bram &written, std::uint32_t bram,
                         double effective_v) const
{
    return fpga::unpackRows(readBramPacked(written, bram, effective_v));
}

int
ChipFaultModel::countFaults(fpga::WordSpan written, std::uint32_t bram,
                            double effective_v) const
{
    if (bram >= ladder10_.size())
        fatal("countFaults: BRAM {} out of pool of {}", bram,
              ladder10_.size());
    return static_cast<int>(
        ladder10_[bram].countFaults(written, true, effective_v) +
        ladder01_[bram].countFaults(written, false, effective_v));
}

int
ChipFaultModel::countBramFaults(const fpga::Bram &written,
                                std::uint32_t bram,
                                double effective_v) const
{
    return countFaults(written.words(), bram, effective_v);
}

int
ChipFaultModel::countBramFaultsReference(const fpga::Bram &written,
                                         std::uint32_t bram,
                                         double effective_v) const
{
    int faults = 0;
    for (const WeakCell &cell : weakCells(bram)) {
        if (!cellFailsAt(cell.thresholdV, effective_v))
            continue;
        const bool stored = written.testBit(cell.row, cell.col);
        if (cell.oneToZero ? stored : !stored)
            ++faults;
    }
    return faults;
}

double
ChipFaultModel::expectedFaults(double effective_v) const
{
    const double v_min = spec_.calib.bramVminMv / 1000.0;
    const double v_crash = spec_.calib.bramVcrashMv / 1000.0;
    if (effective_v >= v_min)
        return 0.0;
    const double k = spec_.faultGrowthSlope();
    const double v = std::max(effective_v, v_crash);
    return spec_.expectedFaultsAtVcrash() * std::exp(-k * (v - v_crash));
}

} // namespace uvolt::vmodel

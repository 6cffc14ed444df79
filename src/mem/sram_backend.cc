#include "mem/sram_backend.hh"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/logging.hh"
#include "util/rng.hh"
#include "vmodel/chip_fault_model.hh"

namespace uvolt::mem
{

const std::vector<SramSpec> &
sramCatalog()
{
    static const std::vector<SramSpec> catalog = [] {
        std::vector<SramSpec> specs(2);
        specs[0].name = "MORS-SRAM-A";
        specs[0].chipId = "MS-55-0196";
        specs[1].name = "MORS-SRAM-B";
        specs[1].chipId = "MS-55-0233";
        // Second chip of the lot: weaker bit-lines, more column
        // clustering and a slightly higher fault-free floor.
        specs[1].vminMv = 850;
        specs[1].weakCellsPerArrayAtVcrash = 75.0;
        specs[1].weakColShare = 0.32;
        return specs;
    }();
    return catalog;
}

const SramSpec *
findSram(const std::string &name)
{
    for (const SramSpec &spec : sramCatalog())
        if (spec.name == name)
            return &spec;
    return nullptr;
}

DeviceTraits
sramDeviceTraits(const SramSpec &spec)
{
    if (spec.rowsPerArray % fpga::bramRowsPerWord != 0)
        fatal("SRAM {}: rowsPerArray {} not word-packable", spec.name,
              spec.rowsPerArray);
    DeviceTraits traits;
    traits.name = spec.name;
    traits.dieId = spec.chipId;
    traits.technology = Technology::sram;
    traits.domainCount = spec.arrayCount;
    traits.wordsPerDomain = spec.rowsPerArray /
        static_cast<std::uint32_t>(fpga::bramRowsPerWord);
    traits.columnHeight = 16; // arrays tile a 8x16 macro grid
    traits.vnomMv = spec.vnomMv;
    traits.vminMv = spec.vminMv;
    traits.vcrashMv = spec.vcrashMv;
    traits.runJitterMv = spec.runJitterMv;
    return traits;
}

SramMorsBackend::SramMorsBackend(const SramSpec &spec)
    : MemoryDevice(sramDeviceTraits(spec)), spec_(spec),
      planes_(traits().domainCount, traits().wordsPerDomain)
{
    const std::uint64_t chipSeed = hashSeed(spec_.chipId);
    const double vmin = spec_.vminMv / 1000.0;
    const double vcrash = spec_.vcrashMv / 1000.0;
    const float cap = static_cast<float>(vmin - 0.002);

    const double population = std::max(
        2.0, spec_.weakCellsPerArrayAtVcrash * spec_.arrayCount);
    const double k = std::log(population) / (vmin - vcrash);

    cells_.resize(spec_.arrayCount);
    std::uint32_t marginalArray = 0;
    std::size_t marginalIndex = 0;
    float marginalThreshold = -1.0f;
    for (std::uint32_t a = 0; a < spec_.arrayCount; ++a) {
        Rng rng(combineSeeds(chipSeed,
                             combineSeeds(hashSeed("mors-cells"), a)));

        // The MoRS spatial skeleton of this array: the few rows and
        // bit-line columns that concentrate the configured shares.
        std::vector<std::uint32_t> weakRows(spec_.weakRowsPerArray);
        for (auto &row : weakRows)
            row = static_cast<std::uint32_t>(
                rng.uniformInt(0, spec_.rowsPerArray - 1));
        std::vector<std::uint8_t> weakCols(spec_.weakColsPerArray);
        for (auto &col : weakCols)
            col = static_cast<std::uint8_t>(
                rng.uniformInt(0, fpga::bramCols - 1));

        const double sigma = 0.3;
        const double lambda = spec_.weakCellsPerArrayAtVcrash *
            rng.logNormal(-0.5 * sigma * sigma, sigma);
        const std::uint64_t target = rng.poisson(lambda);

        std::unordered_set<std::uint32_t> used;
        auto &array = cells_[a];
        const std::uint64_t capacity =
            static_cast<std::uint64_t>(spec_.rowsPerArray) * fpga::bramCols;
        while (array.size() < target && used.size() < capacity) {
            // Sample the location from the three-component mixture.
            const double where = rng.uniform();
            std::uint32_t row;
            std::uint8_t col;
            if (where < spec_.weakRowShare) {
                row = weakRows[rng.uniformInt(0, weakRows.size() - 1)];
                col = static_cast<std::uint8_t>(
                    rng.uniformInt(0, fpga::bramCols - 1));
            } else if (where < spec_.weakRowShare + spec_.weakColShare) {
                row = static_cast<std::uint32_t>(
                    rng.uniformInt(0, spec_.rowsPerArray - 1));
                col = weakCols[rng.uniformInt(0, weakCols.size() - 1)];
            } else {
                row = static_cast<std::uint32_t>(
                    rng.uniformInt(0, spec_.rowsPerArray - 1));
                col = static_cast<std::uint8_t>(
                    rng.uniformInt(0, fpga::bramCols - 1));
            }
            const std::uint32_t offset =
                row * static_cast<std::uint32_t>(fpga::bramCols) + col;
            if (!used.insert(offset).second)
                continue; // one threshold per physical cell

            WeakCell cell;
            cell.row = row;
            cell.col = col;
            cell.oneToZero = rng.chance(spec_.oneToZeroShare);
            cell.thresholdV = std::min(
                static_cast<float>(vcrash + rng.exponential(k)), cap);
            if (cell.thresholdV > marginalThreshold) {
                marginalThreshold = cell.thresholdV;
                marginalArray = a;
                marginalIndex = array.size();
            }
            array.push_back(cell);
        }
    }
    if (marginalThreshold > 0.0f)
        cells_[marginalArray][marginalIndex].thresholdV = cap;

    ladder10_.resize(spec_.arrayCount);
    ladder01_.resize(spec_.arrayCount);
    for (std::uint32_t a = 0; a < spec_.arrayCount; ++a) {
        for (const WeakCell &cell : cells_[a]) {
            const std::uint32_t offset =
                cell.row * static_cast<std::uint32_t>(fpga::bramCols) +
                cell.col;
            auto &ladder = cell.oneToZero ? ladder10_[a] : ladder01_[a];
            ladder.push(cell.thresholdV, offset / fpga::bramWordBits,
                        std::uint64_t{1} << (offset % fpga::bramWordBits));
        }
        ladder10_[a].sortDescending();
        ladder01_[a].sortDescending();
        std::sort(cells_[a].begin(), cells_[a].end(),
                  [](const WeakCell &x, const WeakCell &y) {
                      return x.row != y.row ? x.row < y.row
                                            : x.col < y.col;
                  });
    }
}

void
SramMorsBackend::fill(std::uint16_t lane_pattern)
{
    planes_.fillLanes(lane_pattern);
}

fpga::WordSpan
SramMorsBackend::domainWords(std::uint32_t domain) const
{
    if (domain >= domainCount())
        fatal("SRAM {}: array {} out of pool of {}", name(), domain,
              domainCount());
    return planes_.words(domain);
}

void
SramMorsBackend::assignDomainWords(std::uint32_t domain,
                                   fpga::WordSpan words)
{
    if (domain >= domainCount())
        fatal("SRAM {}: array {} out of pool of {}", name(), domain,
              domainCount());
    planes_.assignWords(domain, words);
}

std::uint64_t
SramMorsBackend::contentEpoch() const
{
    return planes_.epoch();
}

double
SramMorsBackend::effectiveVoltage(double rail_v, double temp_c,
                                  double jitter_v) const
{
    // 6T cells share BRAM's inverse thermal dependence: heat raises the
    // effective voltage and pushes marginal cells back to health.
    return rail_v +
        spec_.itdMvPerC * (temp_c - vmodel::referenceTempC) / 1000.0 +
        jitter_v;
}

int
SramMorsBackend::countDomainFaults(std::uint32_t domain,
                                   double effective_v) const
{
    const fpga::WordSpan words = domainWords(domain);
    return static_cast<int>(
        ladder10_[domain].countFaults(words, true, effective_v) +
        ladder01_[domain].countFaults(words, false, effective_v));
}

int
SramMorsBackend::countDomainFaultsReference(std::uint32_t domain,
                                            double effective_v) const
{
    const fpga::WordSpan words = domainWords(domain);
    int total = 0;
    for (const WeakCell &cell : cells_[domain]) {
        if (!vmodel::cellFailsAt(cell.thresholdV, effective_v))
            continue;
        const std::uint32_t offset =
            cell.row * static_cast<std::uint32_t>(fpga::bramCols) +
            cell.col;
        const bool stored = (words[offset / fpga::bramWordBits] >>
                             (offset % fpga::bramWordBits)) &
            1u;
        if (stored == cell.oneToZero)
            ++total;
    }
    return total;
}

std::vector<std::uint64_t>
SramMorsBackend::readDomainPacked(std::uint32_t domain,
                                  double effective_v) const
{
    const fpga::WordSpan words = domainWords(domain);
    std::vector<std::uint64_t> observed(words.begin(), words.end());
    ladder10_[domain].applyFaults(observed, true, effective_v);
    ladder01_[domain].applyFaults(observed, false, effective_v);
    return observed;
}

double
SramMorsBackend::railPowerW(double rail_v) const
{
    const double vnom = spec_.vnomMv / 1000.0;
    const double ratio = rail_v / vnom;
    return spec_.railPowerNomW *
        (spec_.dynamicFraction * ratio * ratio +
         (1.0 - spec_.dynamicFraction) *
             std::exp(-spec_.leakageSlope * (vnom - rail_v)));
}

std::shared_ptr<const vmodel::FaultOrder>
SramMorsBackend::buildFaultOrder() const
{
    return std::make_shared<const vmodel::FaultOrder>(
        vmodel::FaultOrder::fromLadders(ladder10_, ladder01_));
}

std::unique_ptr<MemoryDevice>
SramMorsBackend::clone() const
{
    return std::unique_ptr<MemoryDevice>(new SramMorsBackend(*this));
}

const std::vector<SramMorsBackend::WeakCell> &
SramMorsBackend::weakCells(std::uint32_t domain) const
{
    if (domain >= domainCount())
        fatal("SRAM {}: array {} out of pool of {}", name(), domain,
              domainCount());
    return cells_[domain];
}

} // namespace uvolt::mem

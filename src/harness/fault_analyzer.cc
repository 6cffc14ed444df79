#include "harness/fault_analyzer.hh"

#include <bit>

#include "fpga/platform.hh"
#include "util/logging.hh"

namespace uvolt::harness
{

void
diffBram(const fpga::Bram &written, fpga::WordSpan observed,
         std::uint32_t bram, std::vector<FaultObservation> &out,
         FaultSummary &summary)
{
    if (observed.size() != static_cast<std::size_t>(fpga::bramWords))
        fatal("diffBram: observed data has {} packed words, expected {}",
              observed.size(), fpga::bramWords);

    const fpga::FaultDomain domain = fpga::FaultDomain::of(written, bram);
    domain.visitFaults(observed, [&](fpga::BitAddress addr,
                                     bool wrote_one) {
        FaultObservation fault;
        fault.bram = addr.bram;
        fault.row = addr.row;
        fault.col = addr.col;
        fault.oneToZero = wrote_one;
        out.push_back(fault);

        ++summary.totalFaults;
        if (fault.oneToZero)
            ++summary.oneToZero;
        else
            ++summary.zeroToOne;
    });
}

std::uint64_t
tallyBram(const fpga::Bram &written, fpga::WordSpan observed,
          FaultSummary &summary)
{
    if (observed.size() != static_cast<std::size_t>(fpga::bramWords))
        fatal("tallyBram: observed data has {} packed words, expected {}",
              observed.size(), fpga::bramWords);

    const fpga::WordSpan words = written.words();
    std::uint64_t one_to_zero = 0;
    std::uint64_t zero_to_one = 0;
    for (std::size_t w = 0; w < words.size(); ++w) {
        one_to_zero += static_cast<std::uint64_t>(
            std::popcount(words[w] & ~observed[w]));
        zero_to_one += static_cast<std::uint64_t>(
            std::popcount(~words[w] & observed[w]));
    }
    summary.oneToZero += one_to_zero;
    summary.zeroToOne += zero_to_one;
    summary.totalFaults += one_to_zero + zero_to_one;
    return one_to_zero + zero_to_one;
}

void
diffBram(const fpga::Bram &written,
         const std::vector<std::uint16_t> &observed, std::uint32_t bram,
         std::vector<FaultObservation> &out, FaultSummary &summary)
{
    if (observed.size() != static_cast<std::size_t>(fpga::bramRows))
        fatal("diffBram: observed data has {} rows, expected {}",
              observed.size(), fpga::bramRows);
    diffBram(written, fpga::packRows(observed), bram, out, summary);
}

double
faultsPerMbit(double fault_count, std::uint64_t total_bits)
{
    return fault_count * fpga::bitsPerMbit / static_cast<double>(total_bits);
}

} // namespace uvolt::harness

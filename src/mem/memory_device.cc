#include "mem/memory_device.hh"

#include <algorithm>

#include "fpga/platform.hh"
#include "util/logging.hh"

namespace uvolt::mem
{

const char *
technologyName(Technology technology)
{
    switch (technology) {
      case Technology::bram:
        return "bram";
      case Technology::hbm:
        return "hbm";
      case Technology::sram:
        return "sram";
    }
    fatal("unknown memory technology {}", static_cast<int>(technology));
}

double
DeviceTraits::totalMbit() const
{
    return static_cast<double>(totalBits()) /
        static_cast<double>(fpga::bitsPerMbit);
}

std::uint64_t
MemoryDevice::countFaults(double effective_v) const
{
    const std::uint64_t epoch = contentEpoch();
    if (memoValid_ && memoEpoch_ == epoch && memoV_ == effective_v)
        return memoTotal_;

    if (!index_.builtFor(epoch)) {
        index_.rebuild(faultOrder(), epoch,
                       [this](std::uint32_t d) { return domainWords(d); });
    }
    const std::uint64_t total = index_.count(effective_v);

    memoValid_ = true;
    memoEpoch_ = epoch;
    memoV_ = effective_v;
    memoTotal_ = total;
    return total;
}

const vmodel::FaultOrder &
MemoryDevice::faultOrder() const
{
    if (!order_)
        order_ = buildFaultOrder();
    return *order_;
}

void
PlaneStore::fillLanes(std::uint16_t lane_pattern)
{
    std::uint64_t word = lane_pattern;
    word |= word << 16;
    word |= word << 32;
    for (auto &plane : planes_)
        std::fill(plane.begin(), plane.end(), word);
    ++epoch_;
}

void
PlaneStore::assignWords(std::uint32_t plane, fpga::WordSpan words)
{
    if (plane >= planes_.size())
        fatal("PlaneStore: plane {} out of pool of {}", plane,
              planes_.size());
    if (words.size() != planes_[plane].size())
        fatal("PlaneStore: {} packed words for a plane of {}",
              words.size(), planes_[plane].size());
    std::copy(words.begin(), words.end(), planes_[plane].begin());
    ++epoch_;
}

} // namespace uvolt::mem

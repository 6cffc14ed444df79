/**
 * @file
 * Probe voltages for checking a vmodel::FaultIndex against the scalar
 * reference walkers (vmodel_test, membackend_test).
 */

#ifndef UVOLT_TESTS_FAULT_INDEX_PROBES_HH
#define UVOLT_TESTS_FAULT_INDEX_PROBES_HH

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "vmodel/fault_index.hh"

namespace uvolt::vmodel
{

/**
 * Voltages where a prefix count can go wrong: each distinct threshold
 * exactly (equal means healthy), one float ulp either side, one level
 * above Vmin (no faults) and one below the lowest threshold (every
 * element active). An order with more than 4096 distinct thresholds
 * (VC707 has ~20 000) is probed at every n/1024-th one plus the lowest,
 * which keeps each reference walk-through near a second.
 */
inline std::vector<double>
boundaryProbes(const FaultOrder &order, double vmin)
{
    std::vector<float> distinct(order.thresholds);
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    std::vector<double> probes{vmin + 0.010};
    if (distinct.empty())
        return probes;
    const std::size_t stride =
        distinct.size() > 4096 ? distinct.size() / 1024 : 1;
    const auto add = [&probes](float t) {
        probes.push_back(static_cast<double>(t));
        probes.push_back(static_cast<double>(
            std::nextafter(t, std::numeric_limits<float>::infinity())));
        probes.push_back(static_cast<double>(std::nextafter(t, 0.0f)));
    };
    for (std::size_t i = 0; i < distinct.size(); i += stride)
        add(distinct[i]);
    add(distinct.back());
    probes.push_back(static_cast<double>(distinct.back()) - 0.050);
    return probes;
}

} // namespace uvolt::vmodel

#endif // UVOLT_TESTS_FAULT_INDEX_PROBES_HH

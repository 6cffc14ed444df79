/**
 * @file
 * The fault-counting primitives every memory technology shares: the
 * fault predicate, the per-domain threshold ladder, and the device-wide
 * fault index that makes the sweep inner loop one binary search.
 *
 * Fault locations are fixed properties of a device and only the supply
 * jitter changes between runs (Table II), so for fixed content a
 * device's fault count is a step function of one number, the effective
 * voltage. FaultOrder lists every weak element of a device once, in
 * descending threshold order, independent of what is stored. FaultIndex
 * projects that order onto the current content in one linear pass: a
 * running sum of the fault bits each element adds under this content,
 * so the count at any voltage is the sum read at one
 * std::partition_point over the order's thresholds. tallyDomains()
 * reads the same prefix once more to split it into a per-domain fault
 * map, the per-BRAM map of the paper's Listing 1.
 *
 * Everything here is header-inline: these are the innermost loops of
 * the characterization path.
 */

#ifndef UVOLT_VMODEL_FAULT_INDEX_HH
#define UVOLT_VMODEL_FAULT_INDEX_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "fpga/fault_domain.hh"
#include "util/logging.hh"

namespace uvolt::vmodel
{

/**
 * THE fault predicate: a weak element with threshold @a threshold_v
 * fails at effective voltage @a effective_v iff the effective voltage
 * is *strictly below* the threshold. Thresholds are stored as float and
 * promoted to double exactly (every float is representable), so the
 * comparison is unambiguous — and a cell whose threshold equals the
 * probe voltage is HEALTHY. Every fault-counting path (activePrefix(),
 * the one binary search behind the ladders, the index and the map
 * tally, and every backend's scalar reference walker) must route
 * through this one function so the exact-equality boundary can never
 * diverge between implementations.
 */
inline bool
cellFailsAt(float threshold_v, double effective_v)
{
    return effective_v < static_cast<double>(threshold_v);
}

/**
 * Length of the prefix of descending @a thresholds whose elements fail
 * at @a effective_v: one binary search with cellFailsAt() as the
 * boundary, shared by every ladder, index and tally below.
 */
inline std::size_t
activePrefix(std::span<const float> thresholds, double effective_v)
{
    const auto end = std::partition_point(
        thresholds.begin(), thresholds.end(),
        [effective_v](float t) { return cellFailsAt(t, effective_v); });
    return static_cast<std::size_t>(end - thresholds.begin());
}

/**
 * The weak elements of one fault domain and one polarity, sorted by
 * descending failure threshold in SoA layout, so the elements active at
 * voltage v are exactly a prefix (found by one binary search) and fault
 * injection/counting over that prefix is AND/OR masks + popcount
 * against the packed data words. A mask is a single bit (BRAM and SRAM
 * cells) or a whole 16-bit row lane (HBM rows), so counting popcounts
 * the masked words instead of assuming 0-or-1.
 */
struct ThresholdLadder
{
    std::vector<float> thresholds;    ///< descending
    std::vector<std::uint32_t> words; ///< packed word index per element
    std::vector<std::uint64_t> masks; ///< mask per element (>= 1 bit)

    std::size_t size() const { return thresholds.size(); }

    void
    push(float threshold_v, std::uint32_t word, std::uint64_t mask)
    {
        thresholds.push_back(threshold_v);
        words.push_back(word);
        masks.push_back(mask);
    }

    /** Stable-sort the three arrays by descending threshold. */
    void
    sortDescending()
    {
        std::vector<std::uint32_t> order(size());
        std::iota(order.begin(), order.end(), 0u);
        std::stable_sort(order.begin(), order.end(),
                         [this](std::uint32_t a, std::uint32_t b) {
                             return thresholds[a] > thresholds[b];
                         });
        ThresholdLadder sorted;
        sorted.thresholds.resize(size());
        sorted.words.resize(size());
        sorted.masks.resize(size());
        for (std::size_t i = 0; i < order.size(); ++i) {
            sorted.thresholds[i] = thresholds[order[i]];
            sorted.words[i] = words[order[i]];
            sorted.masks[i] = masks[order[i]];
        }
        *this = std::move(sorted);
    }

    /**
     * Elements active (failing) at @a effective_v: the prefix length.
     * The boundary is cellFailsAt(), so equality (healthy) resolves
     * identically here and in the scalar reference walkers.
     */
    std::size_t
    activeCount(double effective_v) const
    {
        return activePrefix(thresholds, effective_v);
    }

    /** Faults the active prefix produces against @a written: 1->0
     *  elements fault on every stored 1 they cover, 0->1 on every 0. */
    std::uint64_t
    countFaults(fpga::WordSpan written, bool one_to_zero,
                double effective_v) const
    {
        const std::size_t active = activeCount(effective_v);
        const std::uint64_t flip = one_to_zero ? 0 : ~0ull;
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < active; ++i)
            total += static_cast<std::uint64_t>(
                std::popcount((written[words[i]] ^ flip) & masks[i]));
        return total;
    }

    /** Inject the active prefix into @a out in place: AND NOT for 1->0
     *  elements, OR for 0->1. */
    void
    applyFaults(std::span<std::uint64_t> out, bool one_to_zero,
                double effective_v) const
    {
        const std::size_t active = activeCount(effective_v);
        if (one_to_zero) {
            for (std::size_t i = 0; i < active; ++i)
                out[words[i]] &= ~masks[i];
        } else {
            for (std::size_t i = 0; i < active; ++i)
                out[words[i]] |= masks[i];
        }
    }
};

/**
 * Every weak element of one device, sorted by descending threshold, in
 * SoA layout: (threshold, domain, word, mask, polarity). It does not
 * depend on the stored content, so a device builds it once and every
 * content epoch reuses it. Domain and word indices are 16-bit: every
 * catalog device has fewer than 2^16 domains of fewer than 2^16 words.
 */
struct FaultOrder
{
    std::uint32_t domainCount = 0;
    std::vector<float> thresholds;       ///< descending
    std::vector<std::uint16_t> domains;  ///< fault domain per element
    std::vector<std::uint16_t> words;    ///< packed word in the domain
    std::vector<std::uint64_t> masks;    ///< bits the element covers
    std::vector<std::uint8_t> oneToZero; ///< 1: reads 1 as 0; 0: 0 as 1

    std::size_t size() const { return thresholds.size(); }

    /**
     * Merge per-domain threshold ladders into one device-wide order. Equal
     * thresholds are ordered by (domain, ladder position, polarity), but
     * any tie order gives the same counts: a count sums a whole prefix,
     * and equal thresholds are in or out of it together.
     */
    static FaultOrder
    fromLadders(std::span<const ThresholdLadder> one_to_zero,
                std::span<const ThresholdLadder> zero_to_one)
    {
        struct Element
        {
            float threshold;
            std::uint32_t domain;
            std::uint32_t slot; ///< ladder position << 1 | one-to-zero
        };
        std::vector<Element> elements;
        std::uint64_t mask_bits = 0;
        const std::span<const ThresholdLadder> polarity[2] = {
            zero_to_one, one_to_zero};
        for (std::uint32_t p = 0; p < 2; ++p) {
            for (std::uint32_t d = 0; d < polarity[p].size(); ++d) {
                const ThresholdLadder &ladder = polarity[p][d];
                for (std::uint32_t i = 0; i < ladder.thresholds.size();
                     ++i) {
                    if (d > 0xFFFF || ladder.words[i] > 0xFFFF)
                        panic("FaultOrder: domain {} word {} exceeds the "
                              "16-bit index",
                              d, ladder.words[i]);
                    mask_bits += static_cast<std::uint64_t>(
                        std::popcount(ladder.masks[i]));
                    elements.push_back({ladder.thresholds[i], d,
                                        i << 1 | p});
                }
            }
        }
        // FaultIndex keeps 32-bit running sums of fault bits.
        if (mask_bits > 0xFFFFFFFFull)
            panic("FaultOrder: {} fault bits overflow the index sums",
                  mask_bits);
        std::sort(elements.begin(), elements.end(),
                  [](const Element &a, const Element &b) {
                      if (a.threshold != b.threshold)
                          return a.threshold > b.threshold;
                      return a.domain != b.domain ? a.domain < b.domain
                                                  : a.slot < b.slot;
                  });

        FaultOrder order;
        order.domainCount = static_cast<std::uint32_t>(one_to_zero.size());
        order.thresholds.reserve(elements.size());
        order.domains.reserve(elements.size());
        order.words.reserve(elements.size());
        order.masks.reserve(elements.size());
        order.oneToZero.reserve(elements.size());
        for (const Element &e : elements) {
            const std::uint32_t p = e.slot & 1u;
            const ThresholdLadder &ladder = polarity[p][e.domain];
            order.thresholds.push_back(e.threshold);
            order.domains.push_back(static_cast<std::uint16_t>(e.domain));
            order.words.push_back(
                static_cast<std::uint16_t>(ladder.words[e.slot >> 1]));
            order.masks.push_back(ladder.masks[e.slot >> 1]);
            order.oneToZero.push_back(static_cast<std::uint8_t>(p));
        }
        return order;
    }
};

/**
 * A device's fault count as a function of effective voltage, for the
 * content of one epoch: a running sum of the fault bits each element of
 * a FaultOrder adds under this content (0 for an element that cannot
 * fault), read at the order's prefix for the voltage. Built by one
 * linear pass (no sort); count() is then one binary search over the
 * order's thresholds. Equal to summing the per-domain ladder counts —
 * and so the scalar reference walkers — bit for bit, because the prefix
 * boundary is the shared cellFailsAt(). The index reads the order's
 * thresholds in place, so the order must outlive it.
 */
class FaultIndex
{
  public:
    /** Whether the index was built for content epoch @a epoch. */
    bool
    builtFor(std::uint64_t epoch) const
    {
        return built_ && epoch_ == epoch;
    }

    /**
     * Project @a order onto the content of epoch @a epoch.
     * @param domain_words f(std::uint32_t domain) -> fpga::WordSpan
     */
    template <typename DomainWords>
    void
    rebuild(const FaultOrder &order, std::uint64_t epoch,
            DomainWords &&domain_words)
    {
        std::vector<fpga::WordSpan> planes(order.domainCount);
        for (std::uint32_t d = 0; d < order.domainCount; ++d)
            planes[d] = domain_words(d);

        thresholds_ = order.thresholds;
        sums_.resize(order.size());
        std::uint32_t total = 0;
        for (std::size_t i = 0; i < order.size(); ++i) {
            const std::uint64_t stored =
                planes[order.domains[i]][order.words[i]];
            // 1->0 elements fault on every stored 1 they cover, 0->1
            // elements on every stored 0.
            const std::uint64_t flip = order.oneToZero[i] ? 0 : ~0ull;
            total += static_cast<std::uint32_t>(
                std::popcount((stored ^ flip) & order.masks[i]));
            sums_[i] = total;
        }
        epoch_ = epoch;
        built_ = true;
    }

    /** Fault bits observable at @a effective_v. */
    std::uint64_t
    count(double effective_v) const
    {
        const std::size_t active = activePrefix(thresholds_, effective_v);
        return active == 0 ? 0 : sums_[active - 1];
    }

  private:
    std::span<const float> thresholds_;  ///< the order's, descending
    std::vector<std::uint32_t> sums_;    ///< sums_[k]: first k+1 elements
    std::uint64_t epoch_ = 0;
    bool built_ = false;
};

/** Fault bits of one tally, split by flip polarity. */
struct PolarityCounts
{
    std::uint64_t oneToZero = 0; ///< stored 1 read as 0
    std::uint64_t zeroToOne = 0; ///< stored 0 read as 1

    std::uint64_t total() const { return oneToZero + zeroToOne; }
};

/**
 * The per-domain fault map of a device at one effective voltage: one
 * binary search over @a order, then one pass over its active prefix
 * adding each element's popcount((stored ^ flip) & mask) to its
 * domain. Equal, domain by domain, to the per-domain ladder counts and
 * the scalar reference walkers, because the prefix boundary is
 * cellFailsAt(); equal to diffing a readback of every domain, because
 * each weak element flips only the bits its polarity covers.
 * @param domain_words f(std::uint32_t domain) -> fpga::WordSpan
 * @param per_domain one slot per domain of @a order; overwritten
 * @return the fault bits of the whole device, split by polarity
 */
template <typename DomainWords>
PolarityCounts
tallyDomains(const FaultOrder &order, DomainWords &&domain_words,
             double effective_v, std::span<int> per_domain)
{
    if (per_domain.size() != order.domainCount)
        panic("tallyDomains: {} map slots for {} fault domains",
              per_domain.size(), order.domainCount);
    std::vector<fpga::WordSpan> planes(order.domainCount);
    for (std::uint32_t d = 0; d < order.domainCount; ++d)
        planes[d] = domain_words(d);
    std::fill(per_domain.begin(), per_domain.end(), 0);

    std::uint64_t by_polarity[2] = {0, 0}; ///< [0]: 0->1, [1]: 1->0
    const std::size_t active = activePrefix(order.thresholds, effective_v);
    for (std::size_t i = 0; i < active; ++i) {
        const std::uint16_t domain = order.domains[i];
        const std::uint8_t one_to_zero = order.oneToZero[i];
        const std::uint64_t flip = one_to_zero ? 0 : ~0ull;
        const int bits = std::popcount(
            (planes[domain][order.words[i]] ^ flip) & order.masks[i]);
        per_domain[domain] += bits;
        by_polarity[one_to_zero] += static_cast<std::uint64_t>(bits);
    }
    return {by_polarity[1], by_polarity[0]};
}

} // namespace uvolt::vmodel

#endif // UVOLT_VMODEL_FAULT_INDEX_HH

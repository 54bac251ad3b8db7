/**
 * @file
 * countLayers for the vector tiers, written once against a small
 * uint16 vector type V and instantiated in each tier's kernel file.
 *
 * V provides:
 *   Reg, width (lanes, 2^lowLevels), lowLevels,
 *   load/store (unaligned), zero(), add (lane-wise, mod 2^16),
 *   swap(r, k) for k < lowLevels: lane l takes lane l ^ 2^k.
 *
 * Every template here takes V, so each instantiation lives only in
 * the file compiled with V's instruction set.
 */

#ifndef HAMMER_CORE_HAMMER_KERNELS_LAYERS_HPP
#define HAMMER_CORE_HAMMER_KERNELS_LAYERS_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "core/hammer_kernels.hpp"

namespace hammer::core::layers {

/**
 * countLayers with at most MaxBins planes.  Pass 1 builds plane 0
 * (the support's indicator).  Pass 2 runs levels 0..lowLevels-1 on
 * one register block at a time: plane 0 is loaded, planes 1.. start
 * at zero, and each level adds the shuffled plane below.  Pass 3 runs
 * each higher level k over pairs of blocks 2^k apart, every plane of
 * a pair held in registers.
 */
template <typename V, std::size_t MaxBins>
void
countLayersImpl(const common::Bits *outcomes, std::size_t count,
                int numBits, std::size_t bins, std::uint16_t *planes)
{
    using Reg = typename V::Reg;
    const std::size_t cube = std::size_t{1} << numBits;
    std::fill(planes, planes + cube, std::uint16_t{0});
    for (std::size_t j = 0; j < count; ++j)
        planes[outcomes[j]] = 1;
    if (bins == 1)
        return;

    for (std::size_t x = 0; x < cube; x += V::width) {
        Reg t[MaxBins];
        t[0] = V::load(planes + x);
        for (std::size_t d = 1; d < MaxBins; ++d)
            t[d] = V::zero();
        for (int k = 0; k < V::lowLevels; ++k) {
            for (std::size_t d = MaxBins - 1; d >= 1; --d) {
                if (d < bins)
                    t[d] = V::add(t[d], V::swap(t[d - 1], k));
            }
        }
        for (std::size_t d = 1; d < MaxBins; ++d) {
            if (d < bins)
                V::store(planes + d * cube + x, t[d]);
        }
    }

    for (int k = V::lowLevels; k < numBits; ++k) {
        const std::size_t half = std::size_t{1} << k;
        for (std::size_t base = 0; base < cube; base += 2 * half) {
            for (std::size_t x = base; x < base + half; x += V::width) {
                Reg lo[MaxBins], hi[MaxBins];
                for (std::size_t d = 0; d < MaxBins; ++d) {
                    const bool used = d < bins;
                    lo[d] = used ? V::load(planes + d * cube + x)
                                 : V::zero();
                    hi[d] = used ? V::load(planes + d * cube + x + half)
                                 : V::zero();
                }
                // Descending d reads plane d - 1 before it is updated.
                for (std::size_t d = MaxBins - 1; d >= 1; --d) {
                    if (d < bins) {
                        lo[d] = V::add(lo[d], hi[d - 1]);
                        hi[d] = V::add(hi[d], lo[d - 1]);
                    }
                }
                for (std::size_t d = 1; d < MaxBins; ++d) {
                    if (d < bins) {
                        V::store(planes + d * cube + x, lo[d]);
                        V::store(planes + d * cube + x + half, hi[d]);
                    }
                }
            }
        }
    }
}

/**
 * The tier's countLayers: cubes narrower than one register run the
 * scalar kernel; otherwise the instantiation whose MaxBins covers
 * @p bins (<= kMaxLayerBits + 1).
 */
template <typename V>
void
countLayers(const common::Bits *outcomes, std::size_t count, int numBits,
            std::size_t bins, std::uint16_t *planes)
{
    if ((std::size_t{1} << numBits) < V::width)
        kScalarHammerKernels.countLayers(outcomes, count, numBits, bins,
                                         planes);
    else if (bins <= 8)
        countLayersImpl<V, 8>(outcomes, count, numBits, bins, planes);
    else if (bins <= 16)
        countLayersImpl<V, 16>(outcomes, count, numBits, bins, planes);
    else
        countLayersImpl<V, kMaxLayerBits + 1>(outcomes, count, numBits,
                                              bins, planes);
}

} // namespace hammer::core::layers

#endif // HAMMER_CORE_HAMMER_KERNELS_LAYERS_HPP

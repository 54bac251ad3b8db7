#include "noise/shot_lanes.hpp"

#include <atomic>
#include <cmath>

namespace hammer::noise {

namespace {

/** The setActiveShotLanes() override (nullptr: the probed tier). */
std::atomic<const ShotLanes *> g_override{nullptr};

} // namespace

std::uint64_t
bernoulliBound(double p)
{
    if (!(p > 0.0))
        return 0;
    if (p >= 1.0)
        return std::uint64_t{1} << 53;
    return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
}

ShotLanePlan
makeShotLanePlan(const ShotPlan &plan, const ChannelParams &params,
                 const sim::OutcomeCdf &cdf)
{
    ShotLanePlan lanes;
    lanes.measuredQubits = plan.measuredQubits;
    lanes.mask = plan.mask;
    lanes.scrambleBound = bernoulliBound(plan.scramble);
    lanes.burstBound = bernoulliBound(params.burstProbability);
    lanes.burstPattern = params.burstPattern & plan.mask;
    for (const CorrelatedFlip &cf : plan.correlated) {
        // The scalar loop draws for every pair, whatever its
        // probability: so does a lane (a zero bound never fires).
        lanes.pairBound.push_back(bernoulliBound(cf.probability));
        lanes.pairMask.push_back((common::Bits{1} << cf.qubitA) ^
                                 (common::Bits{1} << cf.qubitB));
    }
    for (std::size_t q = 0; q < plan.flip0.size(); ++q) {
        lanes.flipBound0.push_back(bernoulliBound(plan.flip0[q]));
        lanes.flipBound1.push_back(bernoulliBound(plan.flip1[q]));
    }
    lanes.cdf = cdf.data();
    lanes.dimension = cdf.dimension();
    lanes.total = cdf.total();
    lanes.relabel = plan.relabel.table();
    lanes.relabelBytes = plan.relabel.bytes();
    return lanes;
}

const ShotLanes kScalarShotLanes{common::KernelTier::Scalar, 1, nullptr,
                                 nullptr};

const ShotLanes *
shotLanesForTier(common::KernelTier tier)
{
    if (!common::tierSupported(tier))
        return nullptr;
    for (;; tier = common::lowerTier(tier)) {
        switch (tier) {
#if defined(HAMMER_HAVE_AVX512)
        case common::KernelTier::Avx512:
            return &kAvx512ShotLanes;
#endif
#if (defined(__x86_64__) || defined(_M_X64)) &&                        \
    !defined(HAMMER_DISABLE_SIMD)
        case common::KernelTier::Avx2:
            return &kAvx2ShotLanes;
#endif
        case common::KernelTier::Scalar:
            return &kScalarShotLanes;
        default:
            break;
        }
    }
}

const ShotLanes &
activeShotLanes()
{
    if (const ShotLanes *forced =
            g_override.load(std::memory_order_acquire);
        forced != nullptr)
        return *forced;
    static const ShotLanes *probed =
        shotLanesForTier(common::probedTier());
    return *probed;
}

void
setActiveShotLanes(const ShotLanes *lanes)
{
    g_override.store(lanes, std::memory_order_release);
}

} // namespace hammer::noise

#include "api/backend.hpp"

#include "api/autoplan.hpp"
#include "common/logging.hpp"
#include "noise/exact_sampler.hpp"
#include "noise/trajectory_sampler.hpp"

namespace hammer::api {

using common::fatal;
using common::require;

noise::NoiseModel
resolveNoiseModel(const BackendSpec &spec)
{
    if (spec.model)
        return *spec.model;
    require(spec.noiseScale >= 0.0,
            "BackendSpec: noiseScale must be >= 0");
    return noise::machinePreset(spec.machine).scaled(spec.noiseScale);
}

void
validateBackendSpec(const BackendSpec &spec)
{
    require(spec.shots > 0,
            "BackendSpec: shots must be > 0 (got " +
                std::to_string(spec.shots) + ")");
    require(spec.trajectories > 0,
            "BackendSpec: trajectories must be > 0 (got " +
                std::to_string(spec.trajectories) + ")");
    require(spec.threads >= 0,
            "BackendSpec: threads must be >= 0 (got " +
                std::to_string(spec.threads) + ")");
    require(spec.noiseScale >= 0.0,
            "BackendSpec: noiseScale must be >= 0");
}

void
BackendRegistry::add(const std::string &name, Factory factory)
{
    require(!name.empty(), "BackendRegistry: empty backend name");
    require(factory != nullptr,
            "BackendRegistry: null factory for backend '" + name +
                "'");
    require(factories_.find(name) == factories_.end(),
            "BackendRegistry: backend '" + name +
                "' is already registered");
    factories_.emplace(name, std::move(factory));
}

bool
BackendRegistry::contains(const std::string &name) const
{
    return factories_.find(name) != factories_.end();
}

std::vector<std::string>
BackendRegistry::names() const
{
    std::vector<std::string> result;
    result.reserve(factories_.size());
    for (const auto &[name, factory] : factories_)
        result.push_back(name);
    return result;
}

std::unique_ptr<noise::NoisySampler>
BackendRegistry::make(const std::string &name,
                      const BackendSpec &spec) const
{
    const auto it = factories_.find(name);
    if (it == factories_.end()) {
        std::string known;
        for (const auto &n : names()) {
            if (!known.empty())
                known += ", ";
            known += n;
        }
        fatal("unknown backend '" + name + "' (known backends: " +
              known + ")");
    }
    validateBackendSpec(spec);
    return it->second(spec);
}

BackendRegistry &
BackendRegistry::global()
{
    static BackendRegistry registry = defaultBackendRegistry();
    return registry;
}

BackendRegistry
defaultBackendRegistry()
{
    BackendRegistry registry;
    registry.add("trajectory", [](const BackendSpec &spec) {
        // Batching-planner constants (dispatch overhead, injection
        // weight, checkpoint budget) come from the active
        // calibration; the compiled-in table reproduces the old
        // hand-tuned defaults, and none of them change histograms.
        ensureEnvCalibrationLoaded();
        return std::make_unique<noise::TrajectorySampler>(
            resolveNoiseModel(spec), spec.trajectories,
            plan::replayOptionsFor(plan::PlanChoice{},
                                   plan::activeCalibration()));
    });
    registry.add("channel", [](const BackendSpec &spec) {
        return std::make_unique<noise::ChannelSampler>(
            resolveNoiseModel(spec),
            spec.channelParams.value_or(noise::ChannelParams{}));
    });
    registry.add("exact", [](const BackendSpec &spec) {
        return std::make_unique<noise::ExactSampler>(
            resolveNoiseModel(spec));
    });
    registry.add("exact-cached", [](const BackendSpec &spec) {
        return std::make_unique<noise::CachedExactSampler>(
            resolveNoiseModel(spec));
    });
    registry.add("auto", [](const BackendSpec &spec) {
        return std::make_unique<AutoSampler>(spec);
    });
    return registry;
}

} // namespace hammer::api

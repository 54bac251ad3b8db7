#include "api/mitigation.hpp"

#include <chrono>

#include "common/logging.hpp"

namespace hammer::api {

using common::fatal;
using common::require;
using core::Distribution;

// ---------------------------------------------------------------------------
// HammerMitigator
// ---------------------------------------------------------------------------

HammerMitigator::HammerMitigator(core::HammerConfig config,
                                 int iterations, bool fast)
    : config_(config), iterations_(iterations), fast_(fast)
{
    require(iterations >= 1,
            "HammerMitigator: iterations must be >= 1");
}

std::string
HammerMitigator::name() const
{
    std::string n = fast_ ? "hammer-fast" : "hammer";
    if (iterations_ > 1) {
        n += ':';
        n += std::to_string(iterations_);
    }
    return n;
}

Distribution
HammerMitigator::apply(const Distribution &measured,
                       MitigationContext &ctx) const
{
    core::HammerConfig config = config_;
    if (ctx.threads > 0)
        config.threads = ctx.threads;
    const auto pass = [&](const Distribution &input) {
        return fast_ ? core::reconstructFast(input, config, ctx.stats)
                     : core::reconstruct(input, config, ctx.stats);
    };
    Distribution dist = pass(measured);
    for (int i = 1; i < iterations_; ++i)
        dist = pass(dist);
    return dist;
}

// ---------------------------------------------------------------------------
// ReadoutMitigator
// ---------------------------------------------------------------------------

ReadoutMitigator::ReadoutMitigator(
    mitigation::ReadoutMitigationOptions options)
    : options_(options)
{
}

std::string
ReadoutMitigator::name() const
{
    return "readout";
}

Distribution
ReadoutMitigator::apply(const Distribution &measured,
                        MitigationContext &ctx) const
{
    mitigation::ReadoutMitigationOptions options = options_;
    if (ctx.threads > 0)
        options.threads = ctx.threads;
    return mitigation::mitigateReadout(measured, ctx.model, options);
}

// ---------------------------------------------------------------------------
// EnsembleMitigator
// ---------------------------------------------------------------------------

EnsembleMitigator::EnsembleMitigator(mitigation::EnsembleOptions options)
    : options_(options)
{
}

std::string
EnsembleMitigator::name() const
{
    return "ensemble";
}

Distribution
EnsembleMitigator::apply(const Distribution &measured,
                         MitigationContext &ctx) const
{
    require(ctx.workload != nullptr && ctx.sampler != nullptr &&
                ctx.rng != nullptr,
            "ensemble mitigation re-executes the workload and needs "
            "a full pipeline context (workload + backend + rng); it "
            "is not available on externally measured histograms");
    require(ctx.shots > 0,
            "ensemble mitigation: shot budget must be > 0");
    return mitigation::ensembleSample(
        ctx.workload->logical, ctx.workload->coupling,
        measured.numBits(), *ctx.sampler, ctx.shots, *ctx.rng,
        options_);
}

// ---------------------------------------------------------------------------
// MitigationChain
// ---------------------------------------------------------------------------

MitigationChain::MitigationChain(
    std::vector<std::shared_ptr<const Mitigator>> stages)
    : stages_(std::move(stages))
{
    for (const auto &stage : stages_)
        require(stage != nullptr, "MitigationChain: null stage");
}

void
MitigationChain::append(std::shared_ptr<const Mitigator> stage)
{
    require(stage != nullptr, "MitigationChain: null stage");
    stages_.push_back(std::move(stage));
}

std::string
MitigationChain::name() const
{
    if (stages_.empty())
        return "none";
    std::string joined;
    for (const auto &stage : stages_) {
        if (!joined.empty())
            joined += '+';
        joined += stage->name();
    }
    return joined;
}

Distribution
MitigationChain::apply(const Distribution &measured,
                       MitigationContext &ctx) const
{
    Distribution dist = measured;
    for (const auto &stage : stages_) {
        const auto start = std::chrono::steady_clock::now();
        dist = stage->apply(dist, ctx);
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        ctx.stageSeconds.emplace_back(stage->name(), elapsed.count());
    }
    return dist;
}

// ---------------------------------------------------------------------------
// MitigatorRegistry
// ---------------------------------------------------------------------------

void
MitigatorRegistry::add(const std::string &name,
                       const std::string &usage, Factory factory)
{
    require(!name.empty(), "MitigatorRegistry: empty stage name");
    require(name.find(':') == std::string::npos &&
                name.find(',') == std::string::npos,
            "MitigatorRegistry: stage name '" + name +
                "' must not contain ':' or ','");
    require(factory != nullptr,
            "MitigatorRegistry: null factory for stage '" + name +
                "'");
    require(factories_.find(name) == factories_.end(),
            "MitigatorRegistry: stage '" + name +
                "' is already registered");
    factories_.emplace(name, Entry{usage, std::move(factory)});
}

bool
MitigatorRegistry::contains(const std::string &name) const
{
    return factories_.find(name) != factories_.end();
}

std::vector<std::string>
MitigatorRegistry::names() const
{
    std::vector<std::string> result;
    result.reserve(factories_.size());
    for (const auto &[name, entry] : factories_)
        result.push_back(name);
    return result;
}

std::string
MitigatorRegistry::usage() const
{
    std::string joined;
    for (const auto &[name, entry] : factories_) {
        if (!joined.empty())
            joined += '\n';
        joined += entry.usage;
    }
    return joined;
}

std::shared_ptr<const Mitigator>
MitigatorRegistry::make(const std::string &spec) const
{
    auto parts = splitSpec(spec);
    const std::string kind = parts[0];
    const auto it = factories_.find(kind);
    if (it == factories_.end()) {
        std::string known;
        for (const auto &name : names()) {
            if (!known.empty())
                known += ", ";
            known += name;
        }
        fatal("unknown mitigation stage '" + kind +
              "' (known: " + known + ")");
    }
    parts.erase(parts.begin());
    return it->second.factory(parts);
}

MitigatorRegistry &
MitigatorRegistry::global()
{
    static MitigatorRegistry registry = defaultMitigatorRegistry();
    return registry;
}

namespace {

/** Shared argument shape of every built-in stage: one optional int. */
int
singleIntArg(const std::vector<std::string> &args,
             const std::string &name, int def)
{
    if (args.empty())
        return def;
    if (args.size() > 1)
        fatal("mitigation stage '" + name + "': too many arguments");
    return parsePositiveInt(args[0],
                            "mitigation stage '" + name + "'");
}

} // namespace

MitigatorRegistry
defaultMitigatorRegistry()
{
    MitigatorRegistry registry;
    registry.add("hammer", "hammer[:<iterations>]",
                 [](const std::vector<std::string> &args) {
                     return std::make_shared<HammerMitigator>(
                         core::HammerConfig{},
                         singleIntArg(args, "hammer", 1), false);
                 });
    registry.add("hammer-fast", "hammer-fast[:<iterations>]",
                 [](const std::vector<std::string> &args) {
                     return std::make_shared<HammerMitigator>(
                         core::HammerConfig{},
                         singleIntArg(args, "hammer-fast", 1), true);
                 });
    registry.add("readout", "readout[:<iterations>]",
                 [](const std::vector<std::string> &args) {
                     mitigation::ReadoutMitigationOptions options;
                     options.iterations = singleIntArg(
                         args, "readout", options.iterations);
                     return std::make_shared<ReadoutMitigator>(
                         options);
                 });
    registry.add("ensemble", "ensemble[:<mappings>]",
                 [](const std::vector<std::string> &args) {
                     mitigation::EnsembleOptions options;
                     options.mappings = singleIntArg(
                         args, "ensemble", options.mappings);
                     return std::make_shared<EnsembleMitigator>(
                         options);
                 });
    return registry;
}

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

std::shared_ptr<const Mitigator>
makeMitigator(const std::string &spec)
{
    return MitigatorRegistry::global().make(spec);
}

MitigationChain
mitigationChainFromSpec(const std::string &spec)
{
    MitigationChain chain;
    if (spec.empty() || spec == "none")
        return chain;
    std::size_t start = 0;
    for (;;) {
        const std::size_t comma = spec.find(',', start);
        const std::string token =
            spec.substr(start, comma - start);
        if (token.empty())
            fatal("mitigation chain spec '" + spec +
                  "': empty stage");
        chain.append(makeMitigator(token));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return chain;
}

} // namespace hammer::api

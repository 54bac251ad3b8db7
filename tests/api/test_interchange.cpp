/**
 * @file
 * The serving interchange surface the sharded transport stands on:
 * ExecutionService::shutdown() semantics, the machine-readable
 * service-stats JSON line, Result JSON round-trips through
 * resultFromJson/canonicalResultJson, the optional priority field in
 * both spec-line syntaxes, and the codec contracts of the serving
 * path: jsonNumber is printf("%.17g") byte for byte, the DOM-free
 * resultFromJson agrees with a DOM decoder on real and mutated
 * lines, and ExecutionService::resultLine is wait().json(-1) for
 * every kind of handle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/json.hpp"
#include "api/pipeline.hpp"
#include "api/service.hpp"
#include "circuits/coupling.hpp"
#include "common/bitops.hpp"
#include "common/fault_injection.hpp"
#include "common/logging.hpp"
#include "core/hammer_kernels.hpp"
#include "sim/circuit.hpp"
#include "sim/kernels.hpp"

namespace {

using hammer::api::canonicalResultJson;
using hammer::api::ExecutionService;
using hammer::api::ExecutionServiceOptions;
using hammer::api::ExperimentSpec;
using hammer::api::JsonValue;
using hammer::api::JsonWriter;
using hammer::api::jsonNumber;
using hammer::api::parseJson;
using hammer::api::parseSpecLine;
using hammer::api::Result;
using hammer::api::resultChecksum;
using hammer::api::resultFromJson;
using hammer::api::ServiceShutdownError;
using hammer::api::serviceStatsJson;
using hammer::core::Distribution;

ExperimentSpec
smallSpec(std::uint64_t seed = 1)
{
    ExperimentSpec spec;
    spec.workload = "bv:4";
    spec.backend = "channel";
    spec.backendSpec.shots = 128;
    spec.backendSpec.seed = seed;
    return spec;
}

// ---------------------------------------------------------------------------
// shutdown()
// ---------------------------------------------------------------------------

TEST(Shutdown, DrainsAcceptedWorkThenRejectsNewSubmits)
{
    ExecutionServiceOptions options;
    options.workers = 2;
    ExecutionService service{options};
    std::vector<ExecutionService::JobHandle> handles;
    for (int i = 0; i < 6; ++i)
        handles.push_back(service.submit(smallSpec(i + 1)));

    service.shutdown();
    EXPECT_TRUE(service.isShutdown());

    // Everything accepted before the call completes normally.
    for (const auto &handle : handles) {
        const Result result = service.wait(handle);
        EXPECT_EQ(result.family, "bv");
    }

    // New work is refused with the typed error, and counted.
    EXPECT_THROW(service.submit(smallSpec()), ServiceShutdownError);
    EXPECT_THROW(service.submit(smallSpec()), ServiceShutdownError);
    EXPECT_EQ(service.stats().shutdownRejections, 2u);

    // wait() on a drained handle still works after shutdown.
    EXPECT_EQ(service.wait(handles.front()).family, "bv");
}

TEST(Shutdown, IsIdempotent)
{
    ExecutionService service;
    const auto handle = service.submit(smallSpec());
    service.shutdown();
    service.shutdown();
    service.shutdown();
    EXPECT_TRUE(service.isShutdown());
    EXPECT_EQ(service.wait(handle).family, "bv");
    EXPECT_EQ(service.stats().shutdownRejections, 0u);
}

TEST(Shutdown, ErrorIsAlsoAServiceError)
{
    ExecutionService service;
    service.shutdown();
    // Callers hardened against ServiceError need no new catch site.
    EXPECT_THROW(service.submit(smallSpec()),
                 hammer::api::ServiceError);
}

// ---------------------------------------------------------------------------
// The service-stats JSON line
// ---------------------------------------------------------------------------

TEST(ServiceStatsJson, IsOneParseableLineWithTheFullCounterSet)
{
    ExecutionService service{};
    service.wait(service.submit(smallSpec()));
    service.wait(service.submit(smallSpec())); // Cache hit.

    const std::string line =
        serviceStatsJson(service.stats(), service.workers());
    EXPECT_EQ(line.find('\n'), std::string::npos)
        << "must be a single line for log scraping";

    const auto stats = parseJson(line);
    EXPECT_EQ(stats.at("type").asString(), "service_stats");
    EXPECT_EQ(stats.at("submitted").asNumber(), 2.0);
    EXPECT_EQ(stats.at("completed").asNumber(), 2.0);
    EXPECT_EQ(stats.at("execute_runs").asNumber(), 1.0);
    EXPECT_EQ(stats.at("result_cache").at("hits").asNumber(), 1.0);
    EXPECT_EQ(stats.at("result_cache").at("misses").asNumber(), 1.0);
    EXPECT_GE(stats.at("workers").asNumber(), 1.0);
    EXPECT_GT(stats.at("busy_seconds").asNumber(), 0.0);
    EXPECT_EQ(stats.at("shutdown_rejections").asNumber(), 0.0);
    // Both dispatched tiers: they differ where a module has no
    // kernels of its own for the probed tier (avx512 in sim).
    EXPECT_EQ(stats.at("kernels").asString(),
              hammer::sim::tierName(hammer::sim::activeKernels().tier));
    EXPECT_EQ(stats.at("hammer_kernels").asString(),
              hammer::common::tierName(
                  hammer::core::activeHammerKernels().tier));
}

// ---------------------------------------------------------------------------
// Result JSON round-trips (the wire payload format)
// ---------------------------------------------------------------------------

TEST(ResultJson, RoundTripsByteExactThroughResultFromJson)
{
    ExperimentSpec spec = smallSpec();
    spec.label = "wire-test";
    spec.mitigation = "readout,hammer";
    ExecutionService service;
    const Result original = service.wait(service.submit(spec));

    const std::string json = original.json(-1);
    const Result decoded = resultFromJson(json);
    EXPECT_EQ(decoded.json(-1), json)
        << "decode/re-encode must be byte-exact";
    EXPECT_EQ(decoded.label, "wire-test");
    EXPECT_EQ(decoded.family, original.family);
    EXPECT_EQ(decoded.raw.entries().size(),
              original.raw.entries().size());
}

TEST(ResultJson, CanonicalFormDropsIdentityButNotPhysics)
{
    ExperimentSpec spec = smallSpec();
    spec.label = "first-label";
    ExecutionService service;
    const Result result = service.wait(service.submit(spec));
    const std::string canonical =
        canonicalResultJson(result.json(-1));

    // Identity/timing fields are gone; the physics stays.
    const auto parsed = parseJson(canonical);
    EXPECT_EQ(parsed.find("label"), nullptr);
    EXPECT_EQ(parsed.find("timings"), nullptr);
    EXPECT_NE(parsed.at("histogram").find("raw"), nullptr);
    EXPECT_NE(parsed.at("histogram").find("mitigated"), nullptr);

    // Two runs differing only in label canonicalise identically —
    // the bit-identity comparator the sharded transport gates on.
    spec.label = "second-label";
    const Result relabeled = service.wait(service.submit(spec));
    EXPECT_EQ(canonicalResultJson(relabeled.json(-1)), canonical);

    // Canonicalising is idempotent.
    EXPECT_EQ(canonicalResultJson(canonical), canonical);
}

// ---------------------------------------------------------------------------
// The priority field (CSV 8th field; JSON key is covered alongside
// the other keys in test_service.cpp)
// ---------------------------------------------------------------------------

TEST(SpecLinePriority, ParsesTheEighthCsvField)
{
    const auto parsed = parseSpecLine(
        "bv:5, channel, 512, 3, hammer, machineA, lbl, 7");
    EXPECT_EQ(parsed.priority, 7);
    EXPECT_EQ(parsed.spec.label, "lbl");

    const auto negative = parseSpecLine(
        "bv:5,channel,512,3,hammer,machineA,lbl,-2");
    EXPECT_EQ(negative.priority, -2);

    // Omitted -> neutral priority.
    EXPECT_EQ(parseSpecLine("bv:5,channel,512").priority, 0);
}

TEST(SpecLinePriority, MalformedValuesAreNamedErrors)
{
    for (const std::string line :
         {"bv:5,channel,512,3,hammer,machineA,lbl,soon",
          "bv:5,channel,512,3,hammer,machineA,lbl,1.5",
          "{\"workload\": \"bv:5\", \"priority\": \"high\"}",
          "{\"workload\": \"bv:5\", \"priority\": 1.5}"}) {
        try {
            parseSpecLine(line);
            FAIL() << "expected std::invalid_argument for: " << line;
        } catch (const std::invalid_argument &error) {
            EXPECT_NE(
                std::string(error.what()).find("priority"),
                std::string::npos)
                << error.what();
        }
    }
}

TEST(SpecLinePriority, FlowsFromSpecLineThroughSubmit)
{
    // Drain order under priority is proven deterministically at the
    // pool layer (ThreadPool.SubmitDrainsHighestPriorityFirstThenFifo);
    // here: the parsed field reaches submit() and priorities do not
    // perturb results.
    ExecutionServiceOptions options;
    options.workers = 2;
    ExecutionService service{options};
    std::vector<ExecutionService::JobHandle> handles;
    for (int i = 0; i < 4; ++i) {
        const auto parsed = parseSpecLine(
            "bv:4,channel,128," + std::to_string(i + 1) +
            ",hammer,machineA,p" + std::to_string(i) + "," +
            std::to_string(10 - i));
        handles.push_back(
            service.submit(parsed.spec, parsed.priority));
    }
    for (int i = 0; i < 4; ++i) {
        const Result result = service.wait(handles[i]);
        EXPECT_EQ(result.label, "p" + std::to_string(i));
        EXPECT_EQ(result.seed, static_cast<std::uint64_t>(i + 1));
    }
}

// ---------------------------------------------------------------------------
// jsonNumber: std::to_chars(general, 17) is printf("%.17g")
// ---------------------------------------------------------------------------

std::string
printf17g(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

TEST(JsonNumber, MatchesPrintf17gByteForByte)
{
    std::vector<double> values = {0.0,      -0.0,     1.0,
                                  -1.0,     0.1,      1.0 / 3.0,
                                  DBL_MAX,  -DBL_MAX, DBL_MIN,
                                  -DBL_MIN, DBL_EPSILON,
                                  std::numeric_limits<double>::denorm_min(),
                                  1e-300,   1e300,    123456789012345678.0};
    std::mt19937_64 rng(20260417);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    // Random bit patterns: every exponent, sign and mantissa.
    for (int i = 0; i < 40000; ++i) {
        const std::uint64_t bits = rng();
        double value;
        std::memcpy(&value, &bits, sizeof(value));
        if (std::isfinite(value))
            values.push_back(value);
    }
    // Dyadic shot fractions: counts / 8192, the bulk of histograms.
    for (int count = 0; count <= 8192; ++count)
        values.push_back(count / 8192.0);
    // Integers, small and up to 2^53.
    for (int i = 0; i < 10000; ++i) {
        values.push_back(static_cast<double>(i));
        values.push_back(static_cast<double>(rng() >> 11));
    }
    // Subnormals.
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t bits = rng() & ((1ull << 52) - 1);
        double value;
        std::memcpy(&value, &bits, sizeof(value));
        values.push_back(value);
        values.push_back(-value);
    }
    // Probabilities: uniform, and log-uniform down to 1e-300.
    for (int i = 0; i < 20000; ++i) {
        values.push_back(unit(rng));
        values.push_back(std::pow(10.0, -300.0 * unit(rng)));
    }
    ASSERT_GE(values.size(), 100000u);

    std::size_t mismatches = 0;
    for (const double value : values) {
        const std::string expected = printf17g(value);
        const std::string got = jsonNumber(value);
        if (got != expected && ++mismatches <= 5)
            ADD_FAILURE() << "jsonNumber(" << expected << ") gave "
                          << got;
    }
    EXPECT_EQ(mismatches, 0u);

    // Non-finite values are not JSON numbers.
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(jsonNumber(-std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::quiet_NaN()),
              "null");
}

// ---------------------------------------------------------------------------
// resultFromJson parity with a DOM decoder
// ---------------------------------------------------------------------------

/**
 * The DOM decoder resultFromJson replaced, kept here verbatim as the
 * reference: parseJson into a JsonValue tree, then one
 * Distribution::set per histogram entry.
 */
namespace dom {

using hammer::common::fatal;
using hammer::common::require;

long long
intField(const JsonValue &value, long long floor_value)
{
    const double number = value.asNumber();
    if (number != std::floor(number) ||
        number < static_cast<double>(floor_value) ||
        number > 9.007199254740992e15)
        fatal("must be an integer in range");
    return static_cast<long long>(number);
}

double
metricField(const JsonValue &value)
{
    if (value.isNull())
        return std::numeric_limits<double>::quiet_NaN();
    return value.asNumber();
}

Distribution
distribution(const JsonValue &array, int fallback_bits)
{
    require(array.isArray(), "result json: histogram must be an "
                             "array");
    int num_bits = fallback_bits > 0 ? fallback_bits : 1;
    if (!array.items().empty())
        num_bits = static_cast<int>(
            array.items().front().at("outcome").asString().size());
    Distribution dist(num_bits);
    for (const JsonValue &entry : array.items()) {
        const std::string &outcome = entry.at("outcome").asString();
        require(static_cast<int>(outcome.size()) == num_bits,
                "result json: ragged histogram outcome widths");
        const hammer::common::Bits bits =
            hammer::common::fromBitstring(outcome);
        dist.set(bits, entry.at("probability").asNumber());
    }
    return dist;
}

Result
resultFromJson(const std::string &json)
{
    const JsonValue doc = parseJson(json);
    require(doc.isObject(), "result json: not an object");

    Result result;
    result.label = doc.at("label").asString();
    result.workloadSpec = doc.at("workload").asString();
    result.family = doc.at("family").asString();
    result.backendName = doc.at("backend").asString();
    result.machine = doc.at("machine").asString();
    result.mitigationName = doc.at("mitigation").asString();
    result.measuredQubits =
        static_cast<int>(intField(doc.at("measured_qubits"), 0));
    result.shots = static_cast<int>(intField(doc.at("shots"), 0));
    result.seed =
        static_cast<std::uint64_t>(intField(doc.at("seed"), 0));
    if (const JsonValue *flag = doc.find("degraded")) {
        require(flag->isBool(),
                "result json: degraded must be a boolean");
        result.degraded = flag->asBool();
    }
    if (const JsonValue *correct = doc.find("correct_outcomes")) {
        require(correct->isArray(),
                "result json: correct_outcomes must be an array");
        const int qubits = std::max(1, result.measuredQubits);
        hammer::api::Workload stub(
            result.family.empty() ? "replay" : result.family,
            hammer::sim::Circuit(qubits),
            hammer::circuits::CouplingMap::full(qubits), qubits);
        stub.spec = result.workloadSpec;
        for (const JsonValue &outcome : correct->items())
            stub.correctOutcomes.push_back(
                hammer::common::fromBitstring(outcome.asString()));
        result.workload = std::move(stub);
    }
    const JsonValue &timings = doc.at("timings");
    require(timings.isObject(),
            "result json: timings must be an object");
    for (const auto &[stage, seconds] : timings.members()) {
        if (stage == "total")
            continue;
        result.timings.push_back({stage, seconds.asNumber()});
    }
    const JsonValue &hammer = doc.at("hammer_stats");
    result.hammerStats.uniqueOutcomes = static_cast<std::size_t>(
        intField(hammer.at("unique_outcomes"), 0));
    result.hammerStats.maxDistance =
        static_cast<int>(intField(hammer.at("max_distance"), 0));
    result.hammerStats.pairOperations = static_cast<std::uint64_t>(
        intField(hammer.at("pair_operations"), 0));
    const JsonValue &metrics = doc.at("metrics");
    result.pstRaw = metricField(metrics.at("pst_raw"));
    result.pstMitigated = metricField(metrics.at("pst_mitigated"));
    result.istRaw = metricField(metrics.at("ist_raw"));
    result.istMitigated = metricField(metrics.at("ist_mitigated"));
    result.ehdRaw = metricField(metrics.at("ehd_raw"));
    result.ehdMitigated = metricField(metrics.at("ehd_mitigated"));
    const JsonValue &histogram = doc.at("histogram");
    result.raw =
        distribution(histogram.at("raw"), result.measuredQubits);
    result.mitigated =
        distribution(histogram.at("mitigated"), result.measuredQubits);
    return result;
}

} // namespace dom

/** What one decoder made of one line. */
struct Decoded
{
    bool threw = false;
    std::string error;
    std::uint64_t checksum = 0;
    std::string canonical;
    std::string line;
};

template <typename Decoder>
Decoded
decodeWith(Decoder decode, const std::string &line)
{
    Decoded out;
    Result result;
    try {
        result = decode(line);
    } catch (const std::invalid_argument &error) {
        out.threw = true;
        out.error = error.what();
        return out;
    }
    out.checksum = resultChecksum(result);
    try {
        out.line = result.json(-1);
        out.canonical = canonicalResultJson(out.line);
    } catch (const std::invalid_argument &error) {
        // Decodable but not encodable (0 measured qubits cannot
        // render correct outcomes): still compared, as text.
        out.line = std::string("unencodable: ") + error.what();
    }
    return out;
}

/** Both decoders agree on @p line: same Result, or same error. */
void
expectParity(const std::string &line, const std::string &what,
             bool expectThrow)
{
    const Decoded reference = decodeWith(dom::resultFromJson, line);
    const Decoded direct = decodeWith(resultFromJson, line);
    EXPECT_EQ(reference.threw, expectThrow) << what << ": "
                                            << reference.error;
    EXPECT_EQ(direct.threw, reference.threw) << what;
    EXPECT_EQ(direct.error, reference.error) << what;
    EXPECT_EQ(direct.checksum, reference.checksum) << what;
    EXPECT_EQ(direct.canonical, reference.canonical) << what;
    EXPECT_EQ(direct.line, reference.line) << what;
}

/** Real lines: one executed result per workload family. */
std::vector<Result>
realResults()
{
    std::vector<Result> results;
    const hammer::api::Pipeline pipeline;
    for (const char *workload : {"bv:10", "ghz:8", "mirror:8:4",
                                 "qaoa:8:1"}) {
        ExperimentSpec spec;
        spec.workload = workload;
        spec.backend = "channel";
        spec.backendSpec.shots = 4096;
        spec.backendSpec.seed = 11;
        spec.mitigation = "hammer";
        spec.label = std::string("parity ") + workload;
        results.push_back(pipeline.run(spec));
    }
    return results;
}

/** @p line with its first @p from after @p after replaced by @p to. */
std::string
replaceAfter(std::string line, const std::string &after,
             const std::string &from, const std::string &to)
{
    const std::size_t base = line.find(after);
    EXPECT_NE(base, std::string::npos) << after;
    const std::size_t at = line.find(from, base + after.size());
    EXPECT_NE(at, std::string::npos) << from;
    return line.replace(at, from.size(), to);
}

/** @p line with every @p from replaced by @p to. */
std::string
replaceAll(std::string line, const std::string &from,
           const std::string &to)
{
    for (std::size_t at = line.find(from); at != std::string::npos;
         at = line.find(from, at + to.size()))
        line.replace(at, from.size(), to);
    return line;
}

/** The first outcome bitstring after @p after. */
std::string
firstOutcome(const std::string &line, const std::string &after)
{
    const std::string key = "\"outcome\":\"";
    const std::size_t at = line.find(key, line.find(after));
    const std::size_t begin = at + key.size();
    return line.substr(begin, line.find('"', begin) - begin);
}

/**
 * Re-emit @p value with every object's members reversed and, when
 * @p duplicate, each member followed by a same-named decoy of another
 * kind (first-match lookups must ignore it); @p extra appends an
 * unknown member to every object.
 */
void
writeStyled(JsonWriter &out, const JsonValue &value,
            const std::string &owner, bool duplicate, bool extra)
{
    if (value.isArray()) {
        out.beginArray();
        for (const JsonValue &item : value.items())
            writeStyled(out, item, "", duplicate, extra);
        out.endArray();
        return;
    }
    if (!value.isObject()) {
        hammer::api::writeJsonValue(out, value);
        return;
    }
    out.beginObject();
    const auto &members = value.members();
    for (auto it = members.rbegin(); it != members.rend(); ++it) {
        out.key(it->first);
        writeStyled(out, it->second, it->first, duplicate, extra);
        // Every "timings" member is a stage, so its decoys are too.
        if (duplicate && owner == "timings")
            out.key(it->first).value(0.25);
        else if (duplicate)
            out.key(it->first).value("decoy");
    }
    if (extra) {
        if (owner == "timings") {
            out.key("zz_extra").value(0.5);
        } else {
            out.key("zz_extra").beginArray();
            out.value(1).beginObject();
            out.key("nested").null();
            out.endObject().endArray();
        }
    }
    out.endObject();
}

std::string
styled(const std::string &line, bool duplicate, bool extra)
{
    JsonWriter out;
    writeStyled(out, parseJson(line), "", duplicate, extra);
    return out.str() + "\n";
}

TEST(ResultDecoder, AgreesWithTheDomDecoderOnRealLines)
{
    for (const Result &result : realResults()) {
        const std::string line = result.json(-1);
        expectParity(line, result.workloadSpec, false);
        // The direct decoder is exact: decode + re-encode is the
        // identity on real lines.
        EXPECT_EQ(resultFromJson(line).json(-1), line);
    }
}

TEST(ResultDecoder, AgreesWithTheDomDecoderOnMutatedLines)
{
    for (const Result &result : realResults()) {
        const std::string line = result.json(-1);
        const std::string name = result.workloadSpec + ": ";
        const std::string raw = "\"raw\":[";
        const std::string mitigated = "\"mitigated\":[";
        const std::string top = firstOutcome(line, raw);

        // Reordered and extra keys, duplicate keys.
        expectParity(styled(line, false, false), name + "reordered",
                     false);
        expectParity(styled(line, false, true), name + "extra keys",
                     false);
        expectParity(styled(line, true, false), name + "duplicates",
                     false);
        expectParity(styled(line, true, true),
                     name + "duplicates + extra", false);
        // Insignificant whitespace and escaped outcome characters.
        expectParity(replaceAll(replaceAll(line, "\":", "\" :\n "),
                                ",\"", " ,\t\""),
                     name + "whitespace", false);
        expectParity(replaceAfter(line, raw, "\"outcome\":\"",
                                  "\"outcome\":\"\\u003" +
                                      top.substr(0, 1) + "\\/"),
                     name + "escaped outcome", true);
        expectParity(replaceAfter(line, raw, "\"outcome\":\"" + top,
                                  "\"outcome\":\"\\u003" +
                                      top.substr(0, 1) +
                                      top.substr(1)),
                     name + "escaped outcome char", false);

        // Duplicate outcomes: the last one wins.
        expectParity(
            replaceAfter(line, raw, "],\"mitigated\"",
                         ",{\"outcome\":\"" + top +
                             "\",\"probability\":0.5},{\"outcome\":\"" +
                             top +
                             "\",\"probability\":0.25}],"
                             "\"mitigated\""),
            name + "duplicate outcomes", false);

        // Ragged widths, non-binary characters.
        expectParity(replaceAfter(line, mitigated,
                                  "\"outcome\":\"" +
                                      firstOutcome(line, mitigated),
                                  "\"outcome\":\"" +
                                      firstOutcome(line, mitigated)
                                          .substr(1)),
                     name + "ragged first", true);
        expectParity(replaceAll(line, "\"outcome\":\"" + top + "\"",
                                "\"outcome\":\"" + top + "1\""),
                     name + "ragged later", true);
        expectParity(replaceAfter(line, raw, "\"outcome\":\"" + top,
                                  "\"outcome\":\"2" + top.substr(1)),
                     name + "non-binary", true);
        expectParity(replaceAfter(line, mitigated, "\"outcome\":\"",
                                  "\"outcome\":\"x"),
                     name + "non-binary, wide", true);

        // Empty histograms (the width falls back to measured_qubits).
        const std::string emptyRaw = replaceAfter(
            line, "\"histogram\":{", line.substr(
                                         line.find(raw),
                                         line.find("],\"mitigated\"") -
                                             line.find(raw) + 1),
            "\"raw\":[]");
        expectParity(emptyRaw, name + "empty raw", false);
        expectParity(replaceAfter(emptyRaw, "\"measured_qubits\":",
                                  std::to_string(
                                      result.measuredQubits),
                                  "0"),
                     name + "empty raw, 0 qubits", false);
        expectParity(replaceAfter(emptyRaw, "\"measured_qubits\":",
                                  std::to_string(
                                      result.measuredQubits),
                                  "70"),
                     name + "empty raw, 70 qubits", true);

        // Negative probabilities (-0 is not negative), infinity.
        expectParity(replaceAfter(line, mitigated, "\"probability\":",
                                  "\"probability\":-0.25,\"x\":"),
                     name + "negative", true);
        expectParity(replaceAfter(line, mitigated, "\"probability\":",
                                  "\"probability\":-0,\"x\":"),
                     name + "negative zero", false);
        expectParity(replaceAfter(line, raw, "\"probability\":",
                                  "\"probability\":1e999,\"x\":"),
                     name + "1e999", false);

        // Wrong kinds and missing members, first-match decoys first.
        expectParity(replaceAfter(line, raw, "{\"outcome\"",
                                  "7,{\"outcome\""),
                     name + "non-object entry", true);
        expectParity(replaceAfter(line, raw, "\"outcome\":",
                                  "\"outcome\":7,\"outcome\":"),
                     name + "outcome decoy first", true);
        expectParity(replaceAfter(line, raw, "\"probability\":",
                                  "\"probability\":null,"
                                  "\"probability\":"),
                     name + "probability decoy first", true);
        expectParity(replaceAfter(line, raw, "\"probability\":",
                                  "\"p\":"),
                     name + "missing probability", true);
        expectParity(replaceAfter(line, raw, "\"outcome\":",
                                  "\"o\":"),
                     name + "missing outcome", true);
        expectParity(replaceAfter(line, "\"histogram\":{", raw,
                                  "\"raw\":\"decoy\"," + raw),
                     name + "raw decoy first", true);
        expectParity(replaceAfter(line, "\"histogram\":{",
                                  "\"mitigated\":",
                                  "\"mitigated\":{},\"mitigated\":"),
                     name + "mitigated decoy first", true);
        expectParity(replaceAfter(line, "", "\"histogram\":",
                                  "\"histogram\":7,\"histogram\":"),
                     name + "histogram decoy first", true);
        expectParity(replaceAfter(line, "", "\"metrics\":",
                                  "\"histogram\":{\"raw\":[1]},"
                                  "\"metrics\":"),
                     name + "histogram decoy (earlier)", true);
        expectParity(replaceAfter(line, "\"histogram\":{",
                                  "\"mitigated\":", "\"m\":"),
                     name + "missing mitigated", true);

        // Truncation at every 997th byte.
        for (std::size_t cut = 997; cut < line.size(); cut += 997)
            expectParity(line.substr(0, cut),
                         name + "cut at " + std::to_string(cut), true);
    }
}

TEST(ResultDecoder, AgreesWithTheDomDecoderOn64BitOutcomes)
{
    Result result;
    result.label = "wide";
    result.workloadSpec = "bv:64";
    result.family = "bv";
    result.measuredQubits = 64;
    result.shots = 8;
    Distribution wide(64);
    wide.set(~0ull, 0.5);
    wide.set(1ull << 63, 0.25);
    wide.set(12345, 0.125);
    wide.set(0, 0.125);
    result.raw = wide;
    result.mitigated = wide;
    result.pstRaw = result.pstMitigated = 0.5;
    result.istRaw = result.istMitigated = 1.0;
    result.ehdRaw = result.ehdMitigated = 2.0;
    const std::string line = result.json(-1);
    expectParity(line, "64-bit", false);
    EXPECT_EQ(resultFromJson(line).json(-1), line);
    // 65 characters is one bit too wide.
    expectParity(replaceAll(line, "\"outcome\":\"", "\"outcome\":\"1"),
                 "65-bit", true);
}

// ---------------------------------------------------------------------------
// ExecutionService::resultLine
// ---------------------------------------------------------------------------

/** Stalls the first service job's first fault point once. */
class StallFirstJob final : public hammer::common::FaultInjector
{
  public:
    hammer::common::FaultAction at(hammer::common::FaultSite site,
                                   std::uint64_t) override
    {
        if (site == hammer::common::FaultSite::ServiceJob &&
            !stalled_.exchange(true))
            return {hammer::common::FaultAction::Kind::Stall, 200};
        return hammer::common::FaultAction::none();
    }

  private:
    std::atomic<bool> stalled_{false};
};

TEST(ResultLine, IsWaitJsonForFreshCachedAndCoalescedHandles)
{
    ExecutionServiceOptions options;
    options.workers = 2;
    options.faultInjector = std::make_shared<StallFirstJob>();
    ExecutionService service{options};

    ExperimentSpec spec = smallSpec(5);
    spec.mitigation = "readout,hammer";
    spec.label = "fresh";
    const auto fresh = service.submit(spec);
    spec.label = "coalesced \"quoted\"\ttab";
    const auto coalesced = service.submit(spec); // first one stalls
    spec.label = "";                             // the workload spec
    const auto unlabelled = service.submit(spec);
    EXPECT_EQ(service.stats().coalesced, 2u);

    for (const auto *handle : {&fresh, &coalesced, &unlabelled}) {
        const std::string line = service.resultLine(*handle);
        EXPECT_EQ(line, service.wait(*handle).json(-1));
        // Asking again reuses the shared encoding.
        EXPECT_EQ(service.resultLine(*handle), line);
    }
    EXPECT_NE(service.resultLine(fresh), service.resultLine(coalesced));
    EXPECT_EQ(resultFromJson(service.resultLine(unlabelled)).label,
              "bv:4");

    spec.label = "cached";
    const auto cached = service.submit(spec);
    EXPECT_TRUE(cached.servedFromCache());
    EXPECT_EQ(service.resultLine(cached), service.wait(cached).json(-1));
    EXPECT_EQ(canonicalResultJson(service.resultLine(cached)),
              canonicalResultJson(service.resultLine(fresh)));
    EXPECT_EQ(service.stats().cachePoisonDetected, 0u);
}

TEST(ResultLine, IsWaitJsonForDegradedHandles)
{
    ExecutionServiceOptions options;
    options.workers = 1;
    options.degradedServing = true;
    ExecutionService service{options};

    ExperimentSpec spec;
    spec.workload = "bv:5";
    spec.backend = "trajectory";
    spec.backendSpec.shots = 64;
    spec.backendSpec.trajectories = 10;
    spec.backendSpec.seed = 5;
    const auto warm = service.submit(spec);
    // An impossible deadline on a bigger budget: served the cached
    // lower-budget result, flagged, and its line says so.
    spec.backendSpec.trajectories = 40;
    spec.label = "degraded";
    const auto degraded = service.submit(spec, 0, 1e-7);
    EXPECT_EQ(service.stats().degradedServed, 1u);

    const std::string line = service.resultLine(degraded);
    EXPECT_EQ(line, service.wait(degraded).json(-1));
    EXPECT_NE(line.find("\"degraded\":true"), std::string::npos);
    EXPECT_EQ(service.resultLine(warm), service.wait(warm).json(-1));
    EXPECT_EQ(service.resultLine(warm).find("\"degraded\""),
              std::string::npos);
}

TEST(ResultLine, JsonLineOfJsonAfterLabelIsJson)
{
    for (const Result &result : realResults()) {
        for (const int top : {-1, 0, 3}) {
            const std::string tail = result.jsonAfterLabel(top);
            EXPECT_EQ(tail.front(), ',');
            EXPECT_EQ(Result::jsonLine(result.label, tail),
                      result.json(top));
        }
    }
}

} // namespace

/**
 * @file
 * JSON layer: writer escaping, parser correctness, writer->parser
 * round trips, and the Result golden-file regression (satellite of
 * the serving PR: serialized results must parse back cleanly,
 * adversarial strings included).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "api/json.hpp"
#include "api/pipeline.hpp"
#include "api/service.hpp"

namespace {

using hammer::api::JsonValue;
using hammer::api::JsonWriter;
using hammer::api::jsonQuote;
using hammer::api::parseJson;
using hammer::api::parseSpecLine;
using hammer::api::Result;
using hammer::core::Distribution;

/** The adversarial label every serialization test reuses. */
const char *const kTrickyLabel =
    "golden \"quoted\" back\\slash\ttab\nnewline \x01 control";

/**
 * A fixed, libm-free Result: every double is an exact binary
 * fraction, so its JSON rendering is byte-stable across compilers
 * and platforms (the precondition for the golden file).
 */
Result
goldenResult()
{
    Result result;
    result.label = kTrickyLabel;
    result.workloadSpec = "bv:3";
    result.family = "bv";
    result.backendName = "channel";
    result.machine = "machineA";
    result.mitigationName = "hammer";
    result.measuredQubits = 3;
    result.shots = 100;
    result.seed = 7;

    Distribution raw(3);
    raw.set(0b101, 0.5);
    raw.set(0b100, 0.25);
    raw.set(0b001, 0.125);
    raw.set(0b111, 0.125);
    result.raw = raw;
    Distribution mitigated(3);
    mitigated.set(0b101, 0.75);
    mitigated.set(0b100, 0.25);
    result.mitigated = mitigated;

    result.hammerStats.uniqueOutcomes = 4;
    result.hammerStats.maxDistance = 1;
    result.hammerStats.pairOperations = 12;
    result.timings = {{"workload", 0.5}, {"sample", 0.25},
                      {"mitigate", 0.125},
                      {"mitigate:hammer", 0.0625}};
    result.pstRaw = 0.5;
    result.pstMitigated = 0.75;
    result.istRaw = 2.0;
    result.istMitigated = 4.0;
    // NaN renders as null and must parse back as null.
    result.ehdRaw = std::numeric_limits<double>::quiet_NaN();
    result.ehdMitigated = 0.0625;
    return result;
}

TEST(JsonParser, ParsesScalarsAndContainers)
{
    const JsonValue doc = parseJson(
        R"({"s": "text", "i": 42, "f": -1.5e2, "t": true, )"
        R"("n": null, "a": [1, "two", {"three": 3}], "o": {}})");
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("s").asString(), "text");
    EXPECT_DOUBLE_EQ(doc.at("i").asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(doc.at("f").asNumber(), -150.0);
    EXPECT_TRUE(doc.at("t").asBool());
    EXPECT_TRUE(doc.at("n").isNull());
    ASSERT_EQ(doc.at("a").items().size(), 3u);
    EXPECT_EQ(doc.at("a").items()[1].asString(), "two");
    EXPECT_DOUBLE_EQ(
        doc.at("a").items()[2].at("three").asNumber(), 3.0);
    EXPECT_TRUE(doc.at("o").members().empty());
    EXPECT_EQ(doc.find("missing"), nullptr);
    EXPECT_THROW(doc.at("missing"), std::invalid_argument);
    EXPECT_THROW(doc.at("s").asNumber(), std::invalid_argument);
}

TEST(JsonParser, DecodesEscapes)
{
    const JsonValue doc = parseJson(
        R"(["a\"b", "c\\d", "e\nf", "\t", "\u0041", "\u00e9", )"
        R"("\ud83d\ude00", "\u0001"])");
    const auto &items = doc.items();
    EXPECT_EQ(items[0].asString(), "a\"b");
    EXPECT_EQ(items[1].asString(), "c\\d");
    EXPECT_EQ(items[2].asString(), "e\nf");
    EXPECT_EQ(items[3].asString(), "\t");
    EXPECT_EQ(items[4].asString(), "A");
    EXPECT_EQ(items[5].asString(), "\xC3\xA9");
    EXPECT_EQ(items[6].asString(), "\xF0\x9F\x98\x80");
    EXPECT_EQ(items[7].asString(), std::string(1, '\x01'));
}

TEST(JsonParser, RejectsMalformedDocuments)
{
    for (const char *bad :
         {"", "{", "[1,", "\"unterminated", "{\"a\" 1}",
          "{\"a\": 1} trailing", "nul", "[1 2]", "\"\\q\"",
          "\"\\ud83d\"", "\"\\udc00\"", "--5"})
        EXPECT_THROW(parseJson(bad), std::invalid_argument) << bad;
}

TEST(JsonParser, BoundsNestingDepth)
{
    // The parser fronts untrusted --serve traffic: pathological
    // nesting must throw, not overflow the stack.
    const std::string deep(100000, '[');
    EXPECT_THROW(parseJson(deep), std::invalid_argument);
    // Reasonable nesting still parses.
    std::string ok;
    for (int i = 0; i < 100; ++i)
        ok += '[';
    ok += '1';
    for (int i = 0; i < 100; ++i)
        ok += ']';
    EXPECT_NO_THROW(parseJson(ok));
}

TEST(JsonParser, MalformedInputFuzzTable)
{
    // Table-driven fuzz over the hostile classes the chaos flood
    // exercises at volume: each case states whether the document
    // must parse or must throw the parser's one typed error.
    struct Case
    {
        const char *document;
        bool valid;
    };
    const Case cases[] = {
        // Truncated documents.
        {"{\"a\": ", false},
        {"{\"a\": 1", false},
        {"[1, 2", false},
        {"\"trunc", false},
        {"{\"a\": \"b", false},
        // Surrogate pairs: a valid pair decodes, every lone or
        // malformed half throws.
        {"\"\\ud83d\\ude00\"", true},
        {"\"\\ud800\"", false},
        {"\"\\udc00 first\"", false},
        {"\"\\ud800\\ud800\"", false},
        {"\"\\ud800x\"", false},
        {"\"\\ude00\\ud83d\"", false}, // reversed pair
        // Huge and degenerate numbers: syntactically valid JSON
        // numbers parse (range policy is the spec layer's job);
        // non-JSON spellings throw.
        {"1e999", true},
        {"-1e999", true},
        {"5000000000", true},
        {"0.0000000000000000000000001", true},
        {"1e", false},
        {"0x10", false},
        // RFC 8259 grammar: no plus sign, leading zero, or bare
        // decimal point on either side.
        {"+1", false},
        {"01", false},
        {".5", false},
        {"1.", false},
        {"[-01]", false},
        {"-", false},
        {"1e+", false},
        {"-0", true},
        {"0.5e-3", true},
        {"[0,-0.0,1E+2]", true},
        {"Infinity", false},
        {"NaN", false},
        // Duplicate keys are legal at the JSON layer (last wins is
        // left to the consumer; the spec parser rejects them below).
        {"{\"a\": 1, \"a\": 2}", true},
    };
    for (const Case &c : cases) {
        if (c.valid)
            EXPECT_NO_THROW(parseJson(c.document)) << c.document;
        else
            EXPECT_THROW(parseJson(c.document),
                         std::invalid_argument)
                << c.document;
    }
}

TEST(SpecLineParser, MalformedSpecFuzzTable)
{
    // The same hostile classes one layer up, where budget range
    // checks and the duplicate-key rejection live.
    const char *const rejected[] = {
        // Truncated / malformed carriers.
        "{\"workload\": \"bv:5\",",
        "{\"workload\": \"bv:5\", \"shots\": }",
        // Lone surrogate halves inside a field.
        "{\"workload\": \"bv:5\", \"label\": \"\\ud800\"}",
        "{\"workload\": \"bv:5\", \"label\": \"\\udc00\"}",
        // Huge numbers overflow the int budgets; fractions and
        // non-positives violate them.
        "{\"workload\": \"bv:5\", \"shots\": 5000000000}",
        "{\"workload\": \"bv:5\", \"shots\": 1e999}",
        "{\"workload\": \"bv:5\", \"shots\": 1.5}",
        "{\"workload\": \"bv:5\", \"shots\": 0}",
        "{\"workload\": \"bv:5\", \"seed\": -1}",
        "{\"workload\": \"bv:5\", \"priority\": 1e20}",
        // Duplicate and unknown keys.
        "{\"workload\": \"bv:5\", \"shots\": 1, \"shots\": 2}",
        "{\"workload\": \"bv:5\", \"workload\": \"ghz:4\"}",
        "{\"workload\": \"bv:5\", \"warpdrive\": 9}",
        // Required key missing.
        "{\"shots\": 100}",
        "{}",
    };
    for (const char *line : rejected)
        EXPECT_THROW(parseSpecLine(line), std::invalid_argument)
            << line;

    // A valid surrogate pair in a label survives end to end.
    const auto parsed = parseSpecLine(
        "{\"workload\": \"bv:5\", \"label\": \"\\ud83d\\ude00\"}");
    EXPECT_EQ(parsed.spec.label, "\xF0\x9F\x98\x80");
}

TEST(JsonRoundTrip, WriterOutputParsesBack)
{
    JsonWriter json;
    json.beginObject();
    json.key("tricky").value(kTrickyLabel);
    json.key("nan").value(std::nan(""));
    json.key("count").value(std::uint64_t{18446744073709551615ull});
    json.key("nested").beginArray();
    json.value(0.1);
    json.value(false);
    json.endArray();
    json.endObject();

    const JsonValue doc = parseJson(json.str());
    EXPECT_EQ(doc.at("tricky").asString(), kTrickyLabel)
        << "quotes, backslashes and control chars must survive";
    EXPECT_TRUE(doc.at("nan").isNull());
    EXPECT_DOUBLE_EQ(doc.at("nested").items()[0].asNumber(), 0.1)
        << "17-digit rendering must round-trip doubles exactly";
    EXPECT_FALSE(doc.at("nested").items()[1].asBool());
}

TEST(JsonRoundTrip, ResultSerializationParsesBack)
{
    const Result result = goldenResult();
    const JsonValue doc = parseJson(result.json());

    EXPECT_EQ(doc.at("label").asString(), kTrickyLabel);
    EXPECT_EQ(doc.at("workload").asString(), "bv:3");
    EXPECT_DOUBLE_EQ(doc.at("shots").asNumber(), 100.0);
    EXPECT_DOUBLE_EQ(doc.at("seed").asNumber(), 7.0);
    EXPECT_DOUBLE_EQ(doc.at("metrics").at("pst_raw").asNumber(),
                     0.5);
    EXPECT_TRUE(doc.at("metrics").at("ehd_raw").isNull());
    EXPECT_DOUBLE_EQ(
        doc.at("timings").at("mitigate:hammer").asNumber(), 0.0625);

    const auto &raw = doc.at("histogram").at("raw").items();
    ASSERT_EQ(raw.size(), 4u);
    EXPECT_EQ(raw[0].at("outcome").asString(), "101");
    EXPECT_DOUBLE_EQ(raw[0].at("probability").asNumber(), 0.5);
    double total = 0.0;
    for (const auto &entry : raw)
        total += entry.at("probability").asNumber();
    EXPECT_DOUBLE_EQ(total, 1.0);
}

TEST(JsonRoundTrip, GoldenFileStaysByteExact)
{
    // The golden file pins the exact serialization of a Result whose
    // doubles are binary fractions: any drift in escaping, field
    // order or number rendering shows up as a diff here.
    const std::string path =
        std::string(HAMMER_TEST_DATA_DIR) + "/result_golden.json";
    std::ifstream file(path, std::ios::binary);
    ASSERT_TRUE(file.is_open()) << "missing golden file " << path;
    std::ostringstream golden;
    golden << file.rdbuf();

    std::ostringstream actual;
    goldenResult().writeJson(actual);
    EXPECT_EQ(actual.str(), golden.str());

    // And the pinned bytes parse cleanly.
    const JsonValue doc = parseJson(golden.str());
    EXPECT_EQ(doc.at("label").asString(), kTrickyLabel);
    EXPECT_EQ(doc.at("mitigation").asString(), "hammer");
}

TEST(JsonRoundTrip, PairOperationsStayLogicalAndScoredPairsStayOut)
{
    // A tied shot histogram (most outcomes seen once): Step 3 scores
    // far fewer than N^2 pairs, yet the encoded pair_operations is
    // Algorithm 1's 2 N (N - 1), and scoredPairs changes neither the
    // line nor the checksum.
    Distribution input(10);
    const std::uint64_t count = 300;
    for (std::uint64_t k = 0; k < count; ++k)
        input.set(k * 3 + 1, (k % 10 == 0 ? 25.0 : 1.0) / 1024.0);
    input.normalize();
    Result result = goldenResult();
    result.raw = input;
    result.mitigated = hammer::core::reconstruct(input, {},
                                                 &result.hammerStats);
    EXPECT_EQ(result.hammerStats.pairOperations, 2 * count * (count - 1));
    EXPECT_LT(result.hammerStats.scoredPairs, count * count / 4);

    const std::string line = result.json();
    EXPECT_NE(line.find("\"pair_operations\":" +
                        std::to_string(2 * count * (count - 1))),
              std::string::npos);
    EXPECT_EQ(line.find("scored"), std::string::npos);
    const std::uint64_t checksum = hammer::api::resultChecksum(result);
    result.hammerStats.scoredPairs += 12345;
    EXPECT_EQ(result.json(), line);
    EXPECT_EQ(hammer::api::resultChecksum(result), checksum);
}

} // namespace

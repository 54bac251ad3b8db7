#include "api/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "common/logging.hpp"

namespace hammer::api {

using common::fatal;
using common::require;

namespace {

/** Append @p text to @p out as a quoted, escaped JSON string. */
void
appendQuoted(std::string &out, std::string_view text)
{
    static constexpr char kHex[] = "0123456789abcdef";
    out += '"';
    std::size_t run = 0; // start of the pending run of plain bytes
    for (std::size_t i = 0; i < text.size(); ++i) {
        const auto c = static_cast<unsigned char>(text[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(text.data() + run, i - run);
        run = i + 1;
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default: {
            const char escape[] = {'\\', 'u',           '0',
                                   '0',  kHex[c >> 4], kHex[c & 0xF]};
            out.append(escape, sizeof(escape));
        }
        }
    }
    out.append(text.data() + run, text.size() - run);
    out += '"';
}

void
appendNumber(std::string &out, double value)
{
    if (!std::isfinite(value)) {
        out += "null";
        return;
    }
    char buf[32]; // "%.17g" needs at most 24 ("-1.2345678901234567e-308")
    const auto [end, error] = std::to_chars(
        buf, buf + sizeof(buf), value, std::chars_format::general, 17);
    if (error != std::errc())
        common::panic("jsonNumber: to_chars failed");
    out.append(buf, end);
}

} // namespace

std::string
jsonQuote(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    appendQuoted(out, text);
    return out;
}

std::string
jsonNumber(double value)
{
    std::string out;
    appendNumber(out, value);
    return out;
}

void
JsonWriter::separate()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return;
    }
    if (!hasItems_.empty()) {
        if (hasItems_.back())
            out_ += ',';
        hasItems_.back() = true;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    out_ += '{';
    hasItems_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::resumeObject()
{
    hasItems_.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    out_ += '}';
    hasItems_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    out_ += '[';
    hasItems_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    out_ += ']';
    hasItems_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    separate();
    appendQuoted(out_, name);
    out_ += ':';
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &text)
{
    separate();
    appendQuoted(out_, text);
    return *this;
}

JsonWriter &
JsonWriter::value(const char *text)
{
    separate();
    appendQuoted(out_, text);
    return *this;
}

JsonWriter &
JsonWriter::value(double number)
{
    separate();
    appendNumber(out_, number);
    return *this;
}

JsonWriter &
JsonWriter::value(int number)
{
    separate();
    out_ += std::to_string(number);
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t number)
{
    separate();
    out_ += std::to_string(number);
    return *this;
}

JsonWriter &
JsonWriter::value(bool flag)
{
    separate();
    out_ += flag ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    separate();
    out_ += "null";
    return *this;
}

// ---------------------------------------------------------------------------
// JsonValue
// ---------------------------------------------------------------------------

bool
JsonValue::asBool() const
{
    require(isBool(), "JsonValue: not a bool");
    return bool_;
}

double
JsonValue::asNumber() const
{
    require(isNumber(), "JsonValue: not a number");
    return number_;
}

const std::string &
JsonValue::asString() const
{
    require(isString(), "JsonValue: not a string");
    return string_;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    require(isArray(), "JsonValue: not an array");
    return items_;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    require(isObject(), "JsonValue: not an object");
    return members_;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    require(isObject(), "JsonValue: not an object");
    for (const auto &[name, value] : members_)
        if (name == key)
            return &value;
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *value = find(key);
    if (!value)
        fatal("JsonValue: missing key '" + key + "'");
    return *value;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue parse()
    {
        JsonValue value = parseValue();
        finish();
        return value;
    }

    /** See parseResultJson. */
    JsonValue parseResult(ResultHistograms &histograms)
    {
        enterValue();
        if (peek() != '{') {
            JsonValue value = parseValue();
            finish();
            return value;
        }
        bool seenHistogram = false;
        JsonValue value = parseObject([&](const std::string &key) {
            if (key != "histogram" || std::exchange(seenHistogram, true))
                return parseValue();
            enterValue();
            if (peek() != '{')
                return parseValue();
            bool seenRaw = false;
            bool seenMitigated = false;
            return parseObject([&](const std::string &name) {
                HistogramArray *target = nullptr;
                if (name == "raw" && !std::exchange(seenRaw, true))
                    target = &histograms.raw;
                else if (name == "mitigated" &&
                         !std::exchange(seenMitigated, true))
                    target = &histograms.mitigated;
                enterValue();
                if (!target || peek() != '[')
                    return parseValue();
                parseHistogram(*target);
                return JsonValue{}; // the slot: decoded into target
            });
        });
        finish();
        return value;
    }

  private:
    [[noreturn]] void fail(const std::string &what) const
    {
        fatal("JSON: " + what + " at offset " + std::to_string(pos_));
    }

    void finish()
    {
        skipWhitespace();
        require(pos_ == text_.size(),
                "JSON: trailing characters at offset " +
                    std::to_string(pos_));
    }

    void skipWhitespace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consumeLiteral(const char *literal)
    {
        std::size_t len = 0;
        while (literal[len] != '\0')
            ++len;
        if (text_.compare(pos_, len, literal) != 0)
            return false;
        pos_ += len;
        return true;
    }

    // Recursion bound: parseValue recurses per nesting level, and
    // the parser fronts untrusted traffic (hammer_cli --serve), so
    // pathological inputs must fail instead of overflowing the
    // stack.
    static constexpr int kMaxDepth = 256;

    /** Whitespace, then the depth check every value starts with. */
    void enterValue()
    {
        skipWhitespace();
        if (depth_ >= kMaxDepth)
            fail("nesting deeper than " + std::to_string(kMaxDepth) +
                 " levels");
    }

    /** True when parseValue would read @p c as the start of a number. */
    static bool startsNumber(char c)
    {
        return c != '{' && c != '[' && c != '"' && c != 't' &&
               c != 'f' && c != 'n';
    }

    JsonValue parseValue()
    {
        enterValue();
        switch (peek()) {
        case '{':
            return parseObject(
                [this](const std::string &) { return parseValue(); });
        case '[':
            return parseArray();
        case '"': {
            JsonValue value;
            value.kind_ = JsonValue::Kind::String;
            value.string_ = parseString();
            return value;
        }
        case 't':
        case 'f': {
            JsonValue value;
            value.kind_ = JsonValue::Kind::Bool;
            if (consumeLiteral("true"))
                value.bool_ = true;
            else if (consumeLiteral("false"))
                value.bool_ = false;
            else
                fail("bad literal");
            return value;
        }
        case 'n':
            if (!consumeLiteral("null"))
                fail("bad literal");
            return JsonValue{};
        default: {
            JsonValue value;
            value.kind_ = JsonValue::Kind::Number;
            value.number_ = parseNumber();
            return value;
        }
        }
    }

    /** An object; @p member(key) parses each member's value. */
    template <typename Member>
    JsonValue parseObject(Member &&member)
    {
        expect('{');
        ++depth_;
        JsonValue value;
        value.kind_ = JsonValue::Kind::Object;
        skipWhitespace();
        if (peek() == '}') {
            ++pos_;
            --depth_;
            return value;
        }
        for (;;) {
            skipWhitespace();
            std::string key = parseString();
            skipWhitespace();
            expect(':');
            JsonValue parsed = member(key);
            value.members_.emplace_back(std::move(key),
                                        std::move(parsed));
            skipWhitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            --depth_;
            return value;
        }
    }

    JsonValue parseArray()
    {
        expect('[');
        ++depth_;
        JsonValue value;
        value.kind_ = JsonValue::Kind::Array;
        skipWhitespace();
        if (peek() == ']') {
            ++pos_;
            --depth_;
            return value;
        }
        for (;;) {
            value.items_.push_back(parseValue());
            skipWhitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            --depth_;
            return value;
        }
    }

    unsigned parseHex4()
    {
        unsigned code = 0;
        for (int digit = 0; digit < 4; ++digit) {
            const char c = peek();
            code <<= 4;
            if (c >= '0' && c <= '9')
                code |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                code |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                code |= static_cast<unsigned>(c - 'A' + 10);
            else
                fail("bad \\u escape");
            ++pos_;
        }
        return code;
    }

    static void appendUtf8(std::string &out, unsigned code)
    {
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else if (code < 0x10000) {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        }
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
            case '"':
            case '\\':
            case '/':
                out += esc;
                break;
            case 'b':
                out += '\b';
                break;
            case 'f':
                out += '\f';
                break;
            case 'n':
                out += '\n';
                break;
            case 'r':
                out += '\r';
                break;
            case 't':
                out += '\t';
                break;
            case 'u': {
                unsigned code = parseHex4();
                if (code >= 0xDC00 && code <= 0xDFFF)
                    fail("lone low surrogate");
                if (code >= 0xD800 && code <= 0xDBFF) {
                    // High surrogate: a \uXXXX low surrogate must
                    // follow to form one supplementary code point.
                    if (pos_ + 1 >= text_.size() ||
                        text_[pos_] != '\\' || text_[pos_ + 1] != 'u')
                        fail("lone high surrogate");
                    pos_ += 2;
                    const unsigned low = parseHex4();
                    if (low < 0xDC00 || low > 0xDFFF)
                        fail("bad low surrogate");
                    code = 0x10000 + ((code - 0xD800) << 10) +
                           (low - 0xDC00);
                }
                appendUtf8(out, code);
                break;
            }
            default:
                fail("bad escape");
            }
        }
    }

    /**
     * Read the string at pos_ without copying when it has no escape
     * (the view then points into the text); otherwise decode it into
     * @p scratch.
     */
    std::string_view parseStringView(std::string &scratch)
    {
        if (peek() != '"')
            fail("expected '\"'");
        const std::size_t begin = pos_ + 1;
        std::size_t end = begin;
        while (end < text_.size() && text_[end] != '"' &&
               text_[end] != '\\')
            ++end;
        if (end < text_.size() && text_[end] == '"') {
            pos_ = end + 1;
            return std::string_view(text_).substr(begin, end - begin);
        }
        scratch = parseString();
        return scratch;
    }

    /**
     * One number, strictly per RFC 8259:
     * -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
     * The token is the same [0-9.eE+-] run as ever, so a bad one is
     * reported whole ("bad number '01'").  std::from_chars converts;
     * what it refuses (out of range: 1e999, 1e-400) takes strtod's
     * answer (+-inf, 0) as before.
     */
    double parseNumber()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        const char *const first = text_.data() + start;
        const char *const last = text_.data() + pos_;
        if (!strictNumber(first, last))
            fail("bad number '" + std::string(first, last) + "'");
        double number = 0.0;
        const auto [end, error] = std::from_chars(first, last, number);
        if (error != std::errc() || end != last) {
            const std::string token(first, last);
            number = std::strtod(token.c_str(), nullptr);
        }
        return number;
    }

    /** Whether [first, last) is exactly one RFC 8259 number. */
    static bool strictNumber(const char *first, const char *last)
    {
        const auto digits = [&] {
            const char *begin = first;
            while (first != last && *first >= '0' && *first <= '9')
                ++first;
            return first != begin;
        };
        if (first != last && *first == '-')
            ++first;
        if (first != last && *first == '0')
            ++first;
        else if (!digits())
            return false;
        if (first != last && *first == '.') {
            ++first;
            if (!digits())
                return false;
        }
        if (first != last && (*first == 'e' || *first == 'E')) {
            ++first;
            if (first != last && (*first == '+' || *first == '-'))
                ++first;
            if (!digits())
                return false;
        }
        return first == last;
    }

    // -- Result histograms (parseResultJson) --------------------------

    /** One histogram array into @p out (see HistogramArray). */
    void parseHistogram(HistogramArray &out)
    {
        out.decoded = true;
        expect('[');
        ++depth_;
        skipWhitespace();
        if (peek() == ']') {
            ++pos_;
            --depth_;
            return;
        }
        for (;;) {
            enterValue();
            if (peek() == '{') {
                parseHistogramEntry(out);
            } else {
                parseValue();
                reject(out, "JsonValue: not an object");
            }
            skipWhitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            --depth_;
            return;
        }
    }

    static void reject(HistogramArray &out, const char *what)
    {
        if (out.error.empty())
            out.error = what;
    }

    /**
     * One {"outcome": ..., "probability": ...} entry.  Like at(), it
     * reads the first member of each name; other members are parsed
     * and dropped.  The checks run in the DOM decoder's order.
     */
    void parseHistogramEntry(HistogramArray &out)
    {
        enum class Field { Absent, WrongKind, Present };
        Field outcome = Field::Absent;
        Field probability = Field::Absent;
        std::string_view bits;
        double mass = 0.0;

        expect('{');
        ++depth_;
        skipWhitespace();
        if (peek() == '}') {
            ++pos_;
        } else {
            for (;;) {
                skipWhitespace();
                const std::string_view key = parseStringView(keyScratch_);
                skipWhitespace();
                expect(':');
                enterValue();
                if (key == "outcome" && outcome == Field::Absent) {
                    if (peek() == '"') {
                        bits = parseStringView(outcomeScratch_);
                        outcome = Field::Present;
                    } else {
                        parseValue();
                        outcome = Field::WrongKind;
                    }
                } else if (key == "probability" &&
                           probability == Field::Absent) {
                    if (startsNumber(peek())) {
                        mass = parseNumber();
                        probability = Field::Present;
                    } else {
                        parseValue();
                        probability = Field::WrongKind;
                    }
                } else {
                    parseValue();
                }
                skipWhitespace();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect('}');
                break;
            }
        }
        --depth_;

        if (!out.error.empty())
            return;
        if (outcome == Field::Absent)
            return reject(out, "JsonValue: missing key 'outcome'");
        if (outcome == Field::WrongKind)
            return reject(out, "JsonValue: not a string");
        if (out.width == 0) {
            // The first entry fixes the width, as the DOM decoder's
            // Distribution(width) did.
            if (bits.empty() || bits.size() > 64)
                return reject(out, "Distribution: bit width must be "
                                   "in [1, 64]");
            out.width = static_cast<int>(bits.size());
        }
        if (static_cast<int>(bits.size()) != out.width)
            return reject(out,
                          "result json: ragged histogram outcome widths");
        common::Bits value = 0;
        for (const char c : bits) {
            if (c != '0' && c != '1')
                return reject(out, "fromBitstring: non-binary char");
            value = (value << 1) | static_cast<common::Bits>(c - '0');
        }
        if (probability == Field::Absent)
            return reject(out, "JsonValue: missing key 'probability'");
        if (probability == Field::WrongKind)
            return reject(out, "JsonValue: not a number");
        if (!(mass >= 0.0))
            return reject(out, "Distribution::set: negative probability");
        out.entries.push_back({value, mass});
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    std::string keyScratch_;     ///< Escaped histogram-entry keys.
    std::string outcomeScratch_; ///< Escaped outcome strings.
};

JsonValue
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

JsonValue
parseResultJson(const std::string &text, ResultHistograms &histograms)
{
    return JsonParser(text).parseResult(histograms);
}

void
writeJsonValue(JsonWriter &out, const JsonValue &value)
{
    switch (value.kind()) {
    case JsonValue::Kind::Null:
        out.null();
        break;
    case JsonValue::Kind::Bool:
        out.value(value.asBool());
        break;
    case JsonValue::Kind::Number:
        out.value(value.asNumber());
        break;
    case JsonValue::Kind::String:
        out.value(value.asString());
        break;
    case JsonValue::Kind::Array:
        out.beginArray();
        for (const JsonValue &item : value.items())
            writeJsonValue(out, item);
        out.endArray();
        break;
    case JsonValue::Kind::Object:
        out.beginObject();
        for (const auto &[key, member] : value.members()) {
            out.key(key);
            writeJsonValue(out, member);
        }
        out.endObject();
        break;
    }
}

} // namespace hammer::api

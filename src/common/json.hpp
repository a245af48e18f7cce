#ifndef C2M_COMMON_JSON_HPP
#define C2M_COMMON_JSON_HPP

/**
 * @file
 * Minimal JSON document model: a recursive-descent reader for the
 * analysis tools and a writer for the bench harness.
 *
 * The repo's files (BENCH_*.json, Chrome traces, metrics.jsonl) are
 * plain ASCII JSON; this covers that dialect — objects, arrays,
 * strings with the standard escapes, doubles, bools, null — with
 * positions preserved (object members keep file order) and no
 * external dependency.
 */

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace c2m {
namespace json {

class Value
{
  public:
    enum class Kind : uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> items;                          // Array
    std::vector<std::pair<std::string, Value>> members; // Object

    Value() = default;
    Value(bool b) : kind(Kind::Bool), boolean(b) {}
    template <typename T>
        requires(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>)
    Value(T n) : kind(Kind::Number), number(static_cast<double>(n))
    {
    }
    Value(std::string s) : kind(Kind::String), string(std::move(s)) {}
    Value(const char *s) : Value(std::string(s)) {}

    static Value object();
    static Value array();

    /** Set object member @p key (replacing it if present). */
    Value &set(std::string_view key, Value v);
    /** Append an array item. */
    Value &push(Value v);

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member lookup (first match), nullptr when absent. */
    const Value *find(std::string_view key) const;

    /** Member as number/bool/string with a fallback when absent. */
    double numberOr(std::string_view key, double fallback) const;
    bool boolOr(std::string_view key, bool fallback) const;
    std::string stringOr(std::string_view key,
                         std::string fallback) const;
};

/**
 * Parse @p text into @p out. Returns false on malformed input or
 * arrays and objects nested more than 256 deep and, if @p error is
 * non-null, stores a one-line message with the byte offset. Trailing
 * whitespace is allowed; trailing garbage is not.
 */
bool parse(std::string_view text, Value &out,
           std::string *error = nullptr);

/** Read a whole file and parse it. */
bool parseFile(const std::string &path, Value &out,
               std::string *error = nullptr);

/**
 * Serialize @p v. Numbers use the shortest form that reads back to
 * the same double; NaN and infinities, which JSON cannot hold, are
 * written as null. Arrays and objects nested less than @p wrapDepth
 * deep put each item on its own indented line; deeper ones stay on
 * one line.
 */
std::string write(const Value &v, unsigned wrapDepth = 0);

} // namespace json
} // namespace c2m

#endif // C2M_COMMON_JSON_HPP

#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace c2m {
namespace json {

const Value *
Value::find(std::string_view key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : members)
        if (k == key)
            return &v;
    return nullptr;
}

double
Value::numberOr(std::string_view key, double fallback) const
{
    const Value *v = find(key);
    return v && v->isNumber() ? v->number : fallback;
}

bool
Value::boolOr(std::string_view key, bool fallback) const
{
    const Value *v = find(key);
    return v && v->isBool() ? v->boolean : fallback;
}

std::string
Value::stringOr(std::string_view key, std::string fallback) const
{
    const Value *v = find(key);
    return v && v->isString() ? v->string : fallback;
}

Value
Value::object()
{
    Value v;
    v.kind = Kind::Object;
    return v;
}

Value
Value::array()
{
    Value v;
    v.kind = Kind::Array;
    return v;
}

Value &
Value::set(std::string_view key, Value v)
{
    for (auto &[k, m] : members)
        if (k == key) {
            m = std::move(v);
            return *this;
        }
    members.emplace_back(std::string(key), std::move(v));
    return *this;
}

Value &
Value::push(Value v)
{
    items.push_back(std::move(v));
    return *this;
}

namespace {

/**
 * Deepest array/object nesting the reader accepts: it recurses once
 * per level, so a cap keeps hostile input from exhausting the stack.
 * The bench documents nest 6 deep.
 */
constexpr unsigned kMaxNesting = 256;

struct Parser
{
    std::string_view text;
    size_t pos = 0;
    std::string err;

    bool fail(const char *what)
    {
        if (err.empty())
            err = std::string(what) + " at byte " +
                  std::to_string(pos);
        return false;
    }

    void skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool consume(char c)
    {
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool literal(std::string_view word)
    {
        if (text.compare(pos, word.size(), word) != 0)
            return fail("bad literal");
        pos += word.size();
        return true;
    }

    bool parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected string");
        out.clear();
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                return fail("truncated escape");
            const char e = text[pos++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (pos + 4 > text.size())
                    return fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text[pos++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u digit");
                }
                // The repo's emitters only escape control bytes;
                // encode the code point as UTF-8 for completeness.
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xC0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (cp >> 12));
                    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                }
                break;
            }
            default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    /** @p depth counts the arrays and objects around @p out. */
    bool parseValue(Value &out, unsigned depth = 0)
    {
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        if ((c == '{' || c == '[') && depth == kMaxNesting)
            return fail("arrays and objects nested deeper than 256");
        if (c == '{') {
            ++pos;
            out.kind = Value::Kind::Object;
            skipWs();
            if (consume('}'))
                return true;
            for (;;) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (!consume(':'))
                    return fail("expected ':'");
                Value v;
                if (!parseValue(v, depth + 1))
                    return false;
                out.members.emplace_back(std::move(key),
                                         std::move(v));
                skipWs();
                if (consume(','))
                    continue;
                if (consume('}'))
                    return true;
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos;
            out.kind = Value::Kind::Array;
            skipWs();
            if (consume(']'))
                return true;
            for (;;) {
                Value v;
                if (!parseValue(v, depth + 1))
                    return false;
                out.items.push_back(std::move(v));
                skipWs();
                if (consume(','))
                    continue;
                if (consume(']'))
                    return true;
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            out.kind = Value::Kind::String;
            return parseString(out.string);
        }
        if (c == 't') {
            out.kind = Value::Kind::Bool;
            out.boolean = true;
            return literal("true");
        }
        if (c == 'f') {
            out.kind = Value::Kind::Bool;
            out.boolean = false;
            return literal("false");
        }
        if (c == 'n') {
            out.kind = Value::Kind::Null;
            return literal("null");
        }
        if (c == '-' || (c >= '0' && c <= '9')) {
            // Copy the token out first: the view need not be
            // NUL-terminated, so strtod cannot run on it directly.
            char nbuf[64];
            size_t len = 0;
            while (pos + len < text.size() &&
                   len + 1 < sizeof(nbuf)) {
                const char d = text[pos + len];
                const bool numeric =
                    (d >= '0' && d <= '9') || d == '-' || d == '+' ||
                    d == '.' || d == 'e' || d == 'E';
                if (!numeric)
                    break;
                nbuf[len++] = d;
            }
            nbuf[len] = '\0';
            char *end = nullptr;
            out.kind = Value::Kind::Number;
            out.number = std::strtod(nbuf, &end);
            if (end == nbuf)
                return fail("bad number");
            pos += static_cast<size_t>(end - nbuf);
            return true;
        }
        return fail("unexpected character");
    }
};

void
writeString(std::string &out, const std::string &s)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
writeValue(std::string &out, const Value &v, unsigned depth,
           unsigned wrapDepth)
{
    switch (v.kind) {
    case Value::Kind::Null: out += "null"; return;
    case Value::Kind::Bool: out += v.boolean ? "true" : "false"; return;
    case Value::Kind::Number: {
        if (!std::isfinite(v.number)) {
            out += "null";
            return;
        }
        char buf[32];
        const auto r = std::to_chars(buf, buf + sizeof(buf), v.number);
        out.append(buf, r.ptr);
        return;
    }
    case Value::Kind::String: writeString(out, v.string); return;
    case Value::Kind::Array:
    case Value::Kind::Object: break;
    }
    const bool object = v.isObject();
    const size_t n = object ? v.members.size() : v.items.size();
    const bool wrap = depth < wrapDepth && n > 0;
    const std::string indent(2 * (depth + 1), ' ');
    out += object ? '{' : '[';
    for (size_t i = 0; i < n; ++i) {
        out += i ? (wrap ? ",\n" : ", ") : (wrap ? "\n" : "");
        if (wrap)
            out += indent;
        if (object) {
            writeString(out, v.members[i].first);
            out += ": ";
        }
        writeValue(out, object ? v.members[i].second : v.items[i],
                   depth + 1, wrapDepth);
    }
    if (wrap) {
        out += '\n';
        out.append(2 * depth, ' ');
    }
    out += object ? '}' : ']';
}

} // namespace

std::string
write(const Value &v, unsigned wrapDepth)
{
    std::string out;
    writeValue(out, v, 0, wrapDepth);
    return out;
}

bool
parse(std::string_view text, Value &out, std::string *error)
{
    Parser p{text, 0, {}};
    out = Value{};
    if (!p.parseValue(out)) {
        if (error)
            *error = p.err;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        if (error)
            *error = "trailing garbage at byte " +
                     std::to_string(p.pos);
        return false;
    }
    return true;
}

bool
parseFile(const std::string &path, Value &out, std::string *error)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        if (error)
            *error = "cannot open " + path;
        return false;
    }
    std::string text;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return parse(text, out, error);
}

} // namespace json
} // namespace c2m

#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace vlq {
namespace obs {

namespace {

/**
 * Length of the well-formed multi-byte UTF-8 sequence (RFC 3629) that
 * starts at s[i], or 0 when none does: s[i] is ASCII or a stray
 * continuation byte, or starts an overlong form, a surrogate, a code
 * point above U+10FFFF or a truncated sequence.
 */
size_t
utf8SequenceLength(std::string_view s, size_t i)
{
    const auto byte = [&](size_t k) {
        return static_cast<unsigned char>(s[k]);
    };
    const unsigned char lead = byte(i);
    size_t len = 0;
    unsigned char lo = 0x80; // bounds of the second byte
    unsigned char hi = 0xBF;
    if (lead >= 0xC2 && lead <= 0xDF) {
        len = 2;
    } else if (lead >= 0xE0 && lead <= 0xEF) {
        len = 3;
        if (lead == 0xE0)
            lo = 0xA0;
        else if (lead == 0xED)
            hi = 0x9F;
    } else if (lead >= 0xF0 && lead <= 0xF4) {
        len = 4;
        if (lead == 0xF0)
            lo = 0x90;
        else if (lead == 0xF4)
            hi = 0x8F;
    } else {
        return 0;
    }
    if (i + len > s.size() || byte(i + 1) < lo || byte(i + 1) > hi)
        return 0;
    for (size_t k = i + 2; k < i + len; ++k)
        if (byte(k) < 0x80 || byte(k) > 0xBF)
            return 0;
    return len;
}

} // namespace

std::string
jsonQuote(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        const auto byte = static_cast<unsigned char>(c);
        // Well-formed UTF-8 passes through; any other byte >= 0x80 is
        // escaped like a control byte, so the result is valid UTF-8.
        const size_t utf8 = byte >= 0x80 ? utf8SequenceLength(s, i) : 0;
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else if (utf8 > 0) {
            out.append(s.substr(i, utf8));
            i += utf8 - 1;
        } else if (byte < 0x20 || byte >= 0x80) {
            char esc[8];
            std::snprintf(esc, sizeof esc, "\\u%04x", byte);
            out += esc;
        } else {
            out += c;
        }
    }
    out += '"';
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

namespace {

/** Recursive-descent JSON syntax checker. */
class Lint
{
  public:
    explicit Lint(std::string_view text) : text_(text) {}

    bool run(std::string* err)
    {
        skipWs();
        if (!value()) {
            fill(err);
            return false;
        }
        skipWs();
        if (pos_ != text_.size()) {
            error_ = "trailing garbage";
            fill(err);
            return false;
        }
        return true;
    }

  private:
    void fill(std::string* err)
    {
        if (err)
            *err = error_ + " at byte " + std::to_string(pos_);
    }

    bool eof() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }

    void skipWs()
    {
        while (!eof() && (peek() == ' ' || peek() == '\t'
                          || peek() == '\n' || peek() == '\r'))
            ++pos_;
    }

    bool fail(const char* why)
    {
        if (error_.empty())
            error_ = why;
        return false;
    }

    bool literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return fail("bad literal");
        pos_ += word.size();
        return true;
    }

    bool string()
    {
        if (eof() || peek() != '"')
            return fail("expected string");
        ++pos_;
        while (!eof()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (static_cast<unsigned char>(c) >= 0x80) {
                const size_t len = utf8SequenceLength(text_, pos_ - 1);
                if (len == 0) {
                    --pos_;
                    return fail("invalid UTF-8 in string");
                }
                pos_ += len - 1;
                continue;
            }
            if (c == '\\') {
                if (eof())
                    return fail("truncated escape");
                char e = text_[pos_++];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        if (eof() || !std::isxdigit(
                                static_cast<unsigned char>(peek())))
                            return fail("bad \\u escape");
                        ++pos_;
                    }
                } else if (e != '"' && e != '\\' && e != '/'
                           && e != 'b' && e != 'f' && e != 'n'
                           && e != 'r' && e != 't') {
                    return fail("bad escape character");
                }
            }
        }
        return fail("unterminated string");
    }

    bool number()
    {
        size_t start = pos_;
        if (!eof() && peek() == '-')
            ++pos_;
        if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
            return fail("malformed number");
        if (peek() == '0') {
            ++pos_;
        } else {
            while (!eof()
                   && std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (!eof() && peek() == '.') {
            ++pos_;
            if (eof()
                || !std::isdigit(static_cast<unsigned char>(peek())))
                return fail("malformed fraction");
            while (!eof()
                   && std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (!eof() && (peek() == 'e' || peek() == 'E')) {
            ++pos_;
            if (!eof() && (peek() == '+' || peek() == '-'))
                ++pos_;
            if (eof()
                || !std::isdigit(static_cast<unsigned char>(peek())))
                return fail("malformed exponent");
            while (!eof()
                   && std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        return pos_ > start;
    }

    bool value()
    {
        if (++depth_ > 256)
            return fail("nesting too deep");
        skipWs();
        if (eof())
            return fail("unexpected end of input");
        bool ok;
        switch (peek()) {
        case '{':
            ok = object();
            break;
        case '[':
            ok = array();
            break;
        case '"':
            ok = string();
            break;
        case 't':
            ok = literal("true");
            break;
        case 'f':
            ok = literal("false");
            break;
        case 'n':
            ok = literal("null");
            break;
        default:
            ok = number();
            break;
        }
        --depth_;
        return ok;
    }

    bool object()
    {
        ++pos_; // '{'
        skipWs();
        if (!eof() && peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (eof() || peek() != ':')
                return fail("expected ':' in object");
            ++pos_;
            if (!value())
                return false;
            skipWs();
            if (!eof() && peek() == ',') {
                ++pos_;
                continue;
            }
            if (!eof() && peek() == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool array()
    {
        ++pos_; // '['
        skipWs();
        if (!eof() && peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            if (!value())
                return false;
            skipWs();
            if (!eof() && peek() == ',') {
                ++pos_;
                continue;
            }
            if (!eof() && peek() == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    std::string_view text_;
    size_t pos_ = 0;
    int depth_ = 0;
    std::string error_;
};

} // namespace

bool
jsonLint(std::string_view text, std::string* err)
{
    return Lint(text).run(err);
}

} // namespace obs
} // namespace vlq

#include "util/env.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace vlq {

namespace {

/** Warn once per read about a set-but-unusable value. */
void
warnMalformed(const char* name, const char* value, const char* why)
{
    std::fprintf(stderr,
                 "warn: ignoring %s='%s' (%s); using the default\n",
                 name, value, why);
}

} // namespace

int64_t
envInt(const char* name, int64_t fallback)
{
    const char* v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    std::optional<int64_t> parsed = parseInt64(v);
    if (!parsed) {
        warnMalformed(name, v, "not a base-10 int64");
        return fallback;
    }
    return *parsed;
}

uint64_t
envU64(const char* name, uint64_t fallback)
{
    const char* v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    std::optional<int64_t> parsed = parseInt64(v);
    if (!parsed) {
        warnMalformed(name, v, "not a base-10 int64");
        return fallback;
    }
    if (*parsed < 0) {
        warnMalformed(name, v, "negative count");
        return fallback;
    }
    return static_cast<uint64_t>(*parsed);
}

double
envDouble(const char* name, double fallback)
{
    const char* v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    if (std::isspace(static_cast<unsigned char>(*v))) {
        warnMalformed(name, v, "leading whitespace");
        return fallback;
    }
    errno = 0;
    char* end = nullptr;
    double parsed = std::strtod(v, &end);
    if (end == v || *end != '\0') {
        warnMalformed(name, v, "not a number");
        return fallback;
    }
    if (errno == ERANGE || !std::isfinite(parsed)) {
        // Covers both overflow spellings: "1e999" (ERANGE) and a
        // literal "inf"/"nan" (parsed but useless as a rate/knob).
        warnMalformed(name, v, "not a finite value");
        return fallback;
    }
    return parsed;
}

std::string
envString(const char* name, const std::string& fallback)
{
    const char* v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    return std::string(v);
}

std::string
envLower(const char* name, const std::string& fallback)
{
    return asciiLower(envString(name, fallback));
}

std::string
asciiLower(std::string_view s)
{
    std::string out(s);
    for (char& c : out)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return out;
}

bool
nameListContains(std::string_view list, std::string_view word)
{
    while (!list.empty()) {
        size_t sep = list.find(' ');
        if (list.substr(0, sep) == word)
            return true;
        if (sep == std::string_view::npos)
            break;
        list.remove_prefix(sep + 1);
    }
    return false;
}

namespace {

void
printFlagUsage(const char* argv0, std::initializer_list<FlagSpec> flags)
{
    std::fprintf(stderr, "usage: %s", argv0);
    for (const FlagSpec& spec : flags)
        std::fprintf(stderr, " [%.*s <value>]",
                     static_cast<int>(spec.flag.size()), spec.flag.data());
    std::fprintf(stderr, "\n");
}

} // namespace

bool
parseFlagArgs(int argc, char** argv, std::initializer_list<FlagSpec> flags)
{
    for (int i = 1; i < argc; ++i) {
        std::string_view arg(argv[i]);
        const FlagSpec* match = nullptr;
        for (const FlagSpec& spec : flags)
            if (arg == spec.flag)
                match = &spec;
        if (!match) {
            std::fprintf(stderr, "error: unknown argument '%s'\n",
                         argv[i]);
            printFlagUsage(argv[0], flags);
            return false;
        }
        if (i + 1 >= argc) {
            std::fprintf(stderr, "error: %s needs a value\n", argv[i]);
            printFlagUsage(argv[0], flags);
            return false;
        }
        *match->value = argv[++i];
    }
    return true;
}

bool
parseCsvFlag(int argc, char** argv, std::string& csvPath)
{
    csvPath.clear();
    return parseFlagArgs(argc, argv, {{"--csv", &csvPath}});
}

bool
requireNoArgs(int argc, char** argv)
{
    if (argc <= 1)
        return true;
    std::fprintf(stderr,
                 "error: unknown argument '%s'\nusage: %s  (takes no "
                 "arguments)\n",
                 argv[1], argv[0]);
    return false;
}

std::optional<int64_t>
parseInt64(std::string_view text)
{
    if (text.empty())
        return std::nullopt;
    // strtoll skips leading whitespace; a strict CLI/env parse must
    // not, so " 42" and whitespace-only values are rejected here.
    if (std::isspace(static_cast<unsigned char>(text.front())))
        return std::nullopt;
    // NUL-terminate for strtoll; CLI arguments are short. The parse
    // must consume the whole token: an embedded NUL ("10\0999") stops
    // strtoll early and is junk, not the end of the value.
    std::string buf(text);
    errno = 0;
    char* end = nullptr;
    long long parsed = std::strtoll(buf.c_str(), &end, 10);
    if (end != buf.c_str() + buf.size() || errno == ERANGE)
        return std::nullopt;
    return static_cast<int64_t>(parsed);
}

std::optional<int64_t>
parseBounded(std::string_view name, std::string_view text, int64_t lo,
             int64_t hi)
{
    const std::optional<int64_t> parsed = parseInt64(text);
    if (parsed && *parsed >= lo && *parsed <= hi)
        return parsed;
    std::fprintf(stderr,
                 "error: %.*s must be an integer in %lld..%lld, got "
                 "'%.*s'\n",
                 static_cast<int>(name.size()), name.data(),
                 static_cast<long long>(lo), static_cast<long long>(hi),
                 static_cast<int>(text.size()), text.data());
    return std::nullopt;
}

std::optional<int64_t>
envBounded(const char* name, int64_t fallback, int64_t lo, int64_t hi)
{
    const char* v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    return parseBounded(name, v, lo, hi);
}

} // namespace vlq

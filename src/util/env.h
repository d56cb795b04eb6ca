#ifndef VLQ_UTIL_ENV_H
#define VLQ_UTIL_ENV_H

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "util/logging.h"

namespace vlq {

/**
 * Environment-variable helpers used by benchmarks to scale Monte-Carlo
 * effort without recompiling (e.g. VLQ_TRIALS, VLQ_FULL, VLQ_SEED).
 * Each returns the fallback when the variable is unset or malformed,
 * and prints a warning for malformed *set* values -- a typo'd
 * VLQ_TRIALS=1e9 must not silently become the default. Parsing is
 * strict: leading whitespace, trailing garbage, and values that
 * overflow the target type all count as malformed (no strtoll-style
 * truncation to LLONG_MAX/HUGE_VAL).
 */
int64_t envInt(const char* name, int64_t fallback);
double envDouble(const char* name, double fallback);

/**
 * Unsigned count knob (trials, shots, batch sizes, seeds): envInt's
 * read, with a negative value taken as malformed (a warning and the
 * fallback), so "VLQ_TRIALS=-5" cannot underflow a uint64_t.
 */
uint64_t envU64(const char* name, uint64_t fallback);
std::string envString(const char* name, const std::string& fallback);

/**
 * Like envString but normalized to ASCII lowercase, for
 * case-insensitive choice knobs (e.g. VLQ_DECODER=MWPM).
 */
std::string envLower(const char* name, const std::string& fallback);

/** ASCII-lowercase a string (shared by the choice-knob parsers). */
std::string asciiLower(std::string_view s);

/**
 * True when `word` appears in the space-separated `list` (shared by
 * the registry alias matchers).
 */
bool nameListContains(std::string_view list, std::string_view word);

/**
 * The name lookups of a fixed registry table (the decoder and
 * embedding registries). Each Entry has a `kind`, a canonical
 * lowercase `name` and space-separated `aliases`; `noun` names an entry
 * in error messages ("decoder").
 */
template <typename Entry>
struct NameTable
{
    using Kind = decltype(Entry::kind);

    std::span<const Entry> entries;
    const char* noun;

    /** The kind whose name or alias matches, case-insensitively. */
    std::optional<Kind> parse(std::string_view name) const
    {
        const std::string lowered = asciiLower(name);
        if (lowered.empty())
            return std::nullopt;
        for (const Entry& entry : entries) {
            if (lowered == entry.name
                || nameListContains(entry.aliases, lowered))
                return entry.kind;
        }
        return std::nullopt;
    }

    /** Comma-separated canonical names, for usage/error messages. */
    std::string list() const
    {
        std::string out;
        for (const Entry& entry : entries) {
            if (!out.empty())
                out += ", ";
            out += entry.name;
        }
        return out;
    }

    /**
     * The kind named by environment variable `variable`, or `fallback`
     * when it is unset. A set but unknown value is a hard error that
     * lists the valid names.
     */
    Kind fromEnv(Kind fallback, const char* variable) const
    {
        const std::string value = envLower(variable, "");
        if (value.empty())
            return fallback;
        const std::optional<Kind> kind = parse(value);
        if (!kind) {
            const std::string msg = std::string(variable) + "=" + value
                + " is not a registered " + noun + " (valid: " + list()
                + ")";
            VLQ_FATAL(msg.c_str());
        }
        return *kind;
    }
};

/**
 * Strict integer parse for CLI arguments: the whole string must be a
 * base-10 integer (optional sign, no leading whitespace, no trailing
 * junk, no embedded NUL) that fits int64 -- out-of-range values are
 * rejected, never truncated.
 * @return std::nullopt on empty/malformed/out-of-range input, so
 *         callers can print a usage message instead of silently
 *         running with atoi's 0.
 */
std::optional<int64_t> parseInt64(std::string_view text);

/**
 * Strict parse (parseInt64's rules) of a value that must lie in
 * [lo, hi], the range of the field it is stored in: a count that does
 * not fit is rejected, never narrowed by a cast. On failure prints
 * "error: <name> must be an integer in <lo>..<hi>, got '<text>'" to
 * stderr, naming the flag or variable `text` came from, and returns
 * std::nullopt.
 */
std::optional<int64_t> parseBounded(std::string_view name,
                                    std::string_view text, int64_t lo,
                                    int64_t hi);

/**
 * parseBounded of environment variable `name`, or `fallback` when it
 * is unset or empty. Unlike envInt, a malformed value is rejected as
 * well, not replaced by the fallback.
 */
std::optional<int64_t> envBounded(const char* name, int64_t fallback,
                                  int64_t lo, int64_t hi);

/** One "--flag <value>" option of a CLI flag set. */
struct FlagSpec
{
    std::string_view flag; // e.g. "--csv"
    std::string* value;    // receives the flag's argument
};

/**
 * Parse CLI arguments consisting solely of "--flag <value>" pairs
 * drawn from `flags`. Unknown arguments (including typos like --cvs),
 * stray positionals, and a flag missing its value all print a usage
 * message listing the accepted flags to stderr and return false --
 * never silently ignore an argument: on a multi-minute bench a typo'd
 * flag must fail fast instead of running with defaults.
 */
bool parseFlagArgs(int argc, char** argv,
                   std::initializer_list<FlagSpec> flags);

/**
 * Parse the benches' shared flag set: [--csv <path>]. On success
 * returns true with csvPath filled (empty when the flag is absent);
 * on any other argument prints a usage message to stderr and returns
 * false.
 */
bool parseCsvFlag(int argc, char** argv, std::string& csvPath);

/**
 * For executables that take no arguments: reject any argv with a
 * usage message on stderr (returns false) so extra/typo'd arguments
 * fail fast instead of being silently ignored.
 */
bool requireNoArgs(int argc, char** argv);

} // namespace vlq

#endif // VLQ_UTIL_ENV_H

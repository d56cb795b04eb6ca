#ifndef VLQ_DECODER_DECODER_FACTORY_H
#define VLQ_DECODER_DECODER_FACTORY_H

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "decoder/decoder.h"

namespace vlq {

class DetectorErrorModel;

/** Which decoder backend a Monte-Carlo run uses. */
enum class DecoderKind : uint8_t { Mwpm, Greedy, UnionFind };

/** Factory signature every registered backend provides. */
using DecoderMaker =
    std::unique_ptr<Decoder> (*)(const DetectorErrorModel& dem);

/** One entry of the decoder registry. */
struct DecoderRegistration
{
    DecoderKind kind;
    const char* name;    // canonical lowercase name
    const char* aliases; // space-separated alternative spellings
    DecoderMaker maker;
};

/**
 * The decoder registry: a fixed table of the built-in backends.
 * Monte-Carlo, the benches, and the examples all instantiate decoders
 * through makeDecoder(), so a new backend only needs a table entry --
 * no switch statements to chase.
 */
std::span<const DecoderRegistration> decoderRegistry();

/** Instantiate the registered backend for `kind`. */
std::unique_ptr<Decoder> makeDecoder(DecoderKind kind,
                                     const DetectorErrorModel& dem);

/**
 * Instantiate by case-insensitive name or alias.
 * @return nullptr when the name matches no registered backend.
 */
std::unique_ptr<Decoder> makeDecoder(std::string_view name,
                                     const DetectorErrorModel& dem);

/** Canonical name of a kind ("mwpm", "greedy", "union-find"). */
const char* decoderKindName(DecoderKind kind);

/** Parse a name or alias back to a kind. */
std::optional<DecoderKind> parseDecoderKind(std::string_view name);

/** Comma-separated canonical names, for usage/error messages. */
std::string decoderKindList();

/**
 * Read the decoder selection from the environment (variable
 * VLQ_DECODER unless overridden). Returns `fallback` when the
 * variable is unset; a set-but-unknown value (e.g. a typo'd
 * VLQ_DECODER=mwmp) is a hard error that lists the valid keys --
 * silently falling back would turn a typo into a garbage run.
 */
DecoderKind decoderKindFromEnv(DecoderKind fallback,
                               const char* variable = "VLQ_DECODER");

} // namespace vlq

#endif // VLQ_DECODER_DECODER_FACTORY_H

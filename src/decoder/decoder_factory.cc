#include "decoder/decoder_factory.h"

#include <string>

#include "decoder/mwpm_decoder.h"
#include "decoder/union_find.h"
#include "util/env.h"
#include "util/logging.h"

namespace vlq {

namespace {

std::unique_ptr<Decoder>
makeMwpm(const DetectorErrorModel& dem)
{
    return std::make_unique<MwpmDecoder>(dem);
}

std::unique_ptr<Decoder>
makeGreedy(const DetectorErrorModel& dem)
{
    return std::make_unique<GreedyDecoder>(dem);
}

std::unique_ptr<Decoder>
makeUnionFind(const DetectorErrorModel& dem)
{
    return std::make_unique<UnionFindDecoder>(dem);
}

constexpr DecoderRegistration kRegistry[] = {
    {DecoderKind::Mwpm, "mwpm", "blossom matching", makeMwpm},
    {DecoderKind::Greedy, "greedy", "", makeGreedy},
    {DecoderKind::UnionFind, "union-find", "unionfind uf",
     makeUnionFind},
};

} // namespace

std::span<const DecoderRegistration>
decoderRegistry()
{
    return kRegistry;
}

std::unique_ptr<Decoder>
makeDecoder(DecoderKind kind, const DetectorErrorModel& dem)
{
    for (const DecoderRegistration& entry : decoderRegistry())
        if (entry.kind == kind)
            return entry.maker(dem);
    // Unreachable for the built-in kinds; fail safe to the reference
    // decoder rather than crash.
    return makeMwpm(dem);
}

std::unique_ptr<Decoder>
makeDecoder(std::string_view name, const DetectorErrorModel& dem)
{
    std::optional<DecoderKind> kind = parseDecoderKind(name);
    if (!kind)
        return nullptr;
    return makeDecoder(*kind, dem);
}

const char*
decoderKindName(DecoderKind kind)
{
    for (const DecoderRegistration& entry : decoderRegistry())
        if (entry.kind == kind)
            return entry.name;
    return "unknown";
}

std::optional<DecoderKind>
parseDecoderKind(std::string_view name)
{
    std::string lowered = asciiLower(name);
    if (lowered.empty())
        return std::nullopt;
    for (const DecoderRegistration& entry : decoderRegistry()) {
        if (lowered == entry.name
            || nameListContains(entry.aliases, lowered))
            return entry.kind;
    }
    return std::nullopt;
}

std::string
decoderKindList()
{
    std::string out;
    for (const DecoderRegistration& entry : decoderRegistry()) {
        if (!out.empty())
            out += ", ";
        out += entry.name;
    }
    return out;
}

DecoderKind
decoderKindFromEnv(DecoderKind fallback, const char* variable)
{
    std::string value = envLower(variable, "");
    if (value.empty())
        return fallback;
    std::optional<DecoderKind> kind = parseDecoderKind(value);
    if (!kind) {
        const std::string msg = std::string(variable) + "=" + value
            + " is not a registered decoder (valid: "
            + decoderKindList() + ")";
        VLQ_FATAL(msg.c_str());
    }
    return *kind;
}

} // namespace vlq

#include "decoder/decoder_factory.h"

#include "decoder/mwpm_decoder.h"
#include "decoder/union_find.h"
#include "util/env.h"

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

constexpr NameTable<DecoderRegistration> kNames{kRegistry, "decoder"};

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
    return kNames.parse(name);
}

std::string
decoderKindList()
{
    return kNames.list();
}

DecoderKind
decoderKindFromEnv(DecoderKind fallback, const char* variable)
{
    return kNames.fromEnv(fallback, variable);
}

} // namespace vlq

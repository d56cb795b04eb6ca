#include "core/generator_registry.h"

#include "util/env.h"
#include "util/logging.h"

namespace vlq {

namespace {

PatchCost
baselineCost(int dx, int dz)
{
    // dx*dz data + (dx*dz - 1) ancilla transmons, no memory.
    PatchCost cost;
    cost.transmons = 2 * dx * dz - 1;
    cost.cavities = 0;
    return cost;
}

PatchCost
naturalCost(int dx, int dz)
{
    // Same transmon count; every data transmon gains a cavity.
    PatchCost cost;
    cost.transmons = 2 * dx * dz - 1;
    cost.cavities = dx * dz;
    return cost;
}

PatchCost
compactCost(int dx, int dz)
{
    // Every ancilla merges into a neighboring data transmon except the
    // (dx-1)/2 + (dz-1)/2 boundary ancillas whose merge target falls
    // outside the patch (paper Fig. 7 on the square patch: d-1 of
    // them; d=3 -> 11 transmons, 9 cavities).
    PatchCost cost;
    cost.transmons = dx * dz + (dx - 1) / 2 + (dz - 1) / 2;
    cost.cavities = dx * dz;
    return cost;
}

constexpr GeneratorBackend kRegistry[] = {
    {EmbeddingKind::Baseline2D, "baseline", "baseline2d 2d",
     "Baseline", false, generateBaselineMemory, baselineCost,
     squarePatchShape},
    {EmbeddingKind::Natural, "natural", "nat",
     "Natural", true, generateNaturalMemory, naturalCost,
     squarePatchShape},
    {EmbeddingKind::Compact, "compact", "",
     "Compact", true, generateCompactMemory, compactCost,
     squarePatchShape},
    {EmbeddingKind::CompactRect, "compact-rect",
     "compactrect rect rectangular",
     "Compact-Rect", true, generateCompactRectMemory, compactCost,
     compactRectPatchShape},
};

constexpr NameTable<GeneratorBackend> kNames{kRegistry,
                                             "embedding backend"};

} // namespace

std::pair<int, int>
squarePatchShape(int distance, int distanceX, int distanceZ)
{
    return {distanceX > 0 ? distanceX : distance,
            distanceZ > 0 ? distanceZ : distance};
}

std::span<const GeneratorBackend>
generatorRegistry()
{
    return kRegistry;
}

const GeneratorBackend&
generatorBackend(EmbeddingKind kind)
{
    for (const GeneratorBackend& entry : generatorRegistry())
        if (entry.kind == kind)
            return entry;
    VLQ_PANIC("EmbeddingKind has no registered generator backend");
}

GeneratorFn
makeGenerator(EmbeddingKind kind)
{
    return generatorBackend(kind).generate;
}

GeneratorFn
makeGenerator(std::string_view name)
{
    std::optional<EmbeddingKind> kind = parseEmbeddingKind(name);
    if (!kind)
        return nullptr;
    return makeGenerator(*kind);
}

const char*
embeddingKindName(EmbeddingKind kind)
{
    return generatorBackend(kind).name;
}

std::optional<EmbeddingKind>
parseEmbeddingKind(std::string_view name)
{
    return kNames.parse(name);
}

std::string
embeddingKindList()
{
    return kNames.list();
}

EmbeddingKind
embeddingKindFromEnv(EmbeddingKind fallback, const char* variable)
{
    return kNames.fromEnv(fallback, variable);
}

GeneratedCircuit
generateMemoryCircuit(EmbeddingKind embedding, const GeneratorConfig& config)
{
    return makeGenerator(embedding)(config);
}

PatchCost
patchCost(EmbeddingKind kind, int distance)
{
    return patchCost(kind, distance, distance);
}

PatchCost
patchCost(EmbeddingKind kind, int dx, int dz)
{
    VLQ_ASSERT(dx >= 3 && dx % 2 == 1 && dz >= 3 && dz % 2 == 1,
               "bad distance: patch dimensions must be odd and >= 3");
    return generatorBackend(kind).cost(dx, dz);
}

} // namespace vlq

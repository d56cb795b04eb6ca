#ifndef VLQ_CORE_GENERATOR_REGISTRY_H
#define VLQ_CORE_GENERATOR_REGISTRY_H

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "arch/device.h"
#include "core/generator_common.h"

namespace vlq {

/** Factory signature every registered embedding backend provides. */
using GeneratorFn = GeneratedCircuit (*)(const GeneratorConfig& config);

/** Per-patch hardware cost of a dx x dz patch under a backend. */
using PatchCostFn = PatchCost (*)(int dx, int dz);

/**
 * Resolve requested patch dimensions (distance plus the optional
 * distanceX/distanceZ overrides, 0 = unset) to the {dx, dz} the
 * backend actually builds. This is the single source of truth for
 * backend shape policy: the generator, patchCost-based device
 * accounting, and reports all resolve through it, so a backend with a
 * non-square default (compact-rect) cannot have its circuits and its
 * hardware costs quietly describe different patches.
 */
using PatchShapeFn = std::pair<int, int> (*)(int distance, int distanceX,
                                             int distanceZ);

/**
 * One embedding backend of the circuit-generator registry: how to name
 * it, how to generate a memory circuit under it, and what its patches
 * cost. The Monte-Carlo driver, the benches, and the examples all go
 * through this table (via makeGenerator / generateMemoryCircuit /
 * patchCost), so a new hardware layout -- another cavity depth
 * trade-off, a biased-noise patch shape, a non-square grid -- is one
 * table entry, with no scheduler or call-site churn.
 */
struct GeneratorBackend
{
    EmbeddingKind kind;

    /** Canonical lowercase name ("compact-rect"). */
    const char* name;

    /** Space-separated alternative spellings ("compactrect rect"). */
    const char* aliases;

    /** Display name used in reports and figure CSVs ("Compact"). */
    const char* display;

    /**
     * True when the backend pages patches through cavities, i.e. the
     * cavityDepth / ExtractionSchedule knobs are meaningful. False for
     * the memoryless 2D baseline.
     */
    bool virtualized;

    /** Generate the memory-experiment circuit. */
    GeneratorFn generate;

    /** Price a dx x dz patch. */
    PatchCostFn cost;

    /** Resolve requested dimensions to the patch actually built. */
    PatchShapeFn shape;
};

/**
 * The default shape policy: explicit overrides win, unset axes fall
 * back to the square `distance` patch. Shared by several table entries.
 */
std::pair<int, int> squarePatchShape(int distance, int distanceX,
                                     int distanceZ);

/**
 * The generator registry: a fixed table of the paper's three
 * embeddings plus the rectangular Compact variant.
 */
std::span<const GeneratorBackend> generatorRegistry();

/** Look up a registered backend; panics when `kind` is unregistered. */
const GeneratorBackend& generatorBackend(EmbeddingKind kind);

/**
 * The compact-rect registry shape hook: the bias-aware policy below
 * under uniform noise (a default, disabled BiasedPauliSource), since
 * resource estimation has no noise model in hand. Explicit overrides
 * win; with neither set, 3 columns x `distance` rows.
 */
std::pair<int, int> compactRectPatchShape(int distance, int distanceX,
                                          int distanceZ);

/**
 * The compact-rect shape policy: explicit overrides win. With neither
 * set, uniform noise (a disabled source) narrows the patch to 3
 * columns x `distance` rows: minimum memory-X protection, full
 * memory-Z protection. With bias enabled, the default column
 * count is derived from the Pauli mass ratios: equal logical
 * suppression under the ~(p/pth)^(d/2) scaling needs side lengths
 * proportional to the log error masses, so dx ~= distance * ln(mZ) /
 * ln(mX+mY), rounded to odd and clamped to [3, distance]. Strongly
 * Z-biased noise narrows toward 3 columns; X-leaning noise keeps the
 * full square (no protection can be shed).
 */
std::pair<int, int> compactRectPatchShape(int distance, int distanceX,
                                          int distanceZ,
                                          const BiasedPauliSource& bias);

/** The registered generator function for `kind` (never null). */
GeneratorFn makeGenerator(EmbeddingKind kind);

/**
 * Look up by case-insensitive name or alias.
 * @return nullptr when the name matches no registered backend.
 */
GeneratorFn makeGenerator(std::string_view name);

/** Canonical registry name of a kind ("baseline", "compact-rect"). */
const char* embeddingKindName(EmbeddingKind kind);

/** Parse a name or alias back to a kind. */
std::optional<EmbeddingKind> parseEmbeddingKind(std::string_view name);

/** Comma-separated canonical names, for usage/error messages. */
std::string embeddingKindList();

/**
 * Read the embedding selection from the environment (variable
 * VLQ_EMBEDDING unless overridden). Returns `fallback` when the
 * variable is unset; a set-but-unknown value (e.g. a typo'd
 * VLQ_EMBEDDING=compct) is a hard error that lists the valid keys --
 * silently falling back would turn a typo into a garbage run.
 */
EmbeddingKind embeddingKindFromEnv(EmbeddingKind fallback,
                                   const char* variable = "VLQ_EMBEDDING");

} // namespace vlq

#endif // VLQ_CORE_GENERATOR_REGISTRY_H

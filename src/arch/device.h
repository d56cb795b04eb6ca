#ifndef VLQ_ARCH_DEVICE_H
#define VLQ_ARCH_DEVICE_H

#include <cstdint>
#include <string>

namespace vlq {

/**
 * Which surface-code embedding a device implements. Each kind is backed
 * by an entry in the generator registry (core/generator_registry.h);
 * adding a kind means adding a registration, not chasing switches.
 */
enum class EmbeddingKind : uint8_t {
    /** Conventional 2D transmon grid, no memory (paper's baseline). */
    Baseline2D,
    /** Natural embedding: cavities under data transmons only. */
    Natural,
    /** Compact embedding: merged data/ancilla transmons, all with
     *  cavities. */
    Compact,
    /** Compact on a rectangular dx x dz patch: spends hardware on the
     *  logical basis that needs it, for biased-noise devices. */
    CompactRect,
};

/** How syndrome extraction visits a stack of virtualized patches. */
enum class ExtractionSchedule : uint8_t {
    /** Load a patch, run d rounds, store (paper "All-at-once"). */
    AllAtOnce,
    /** Load, run one round, store; cycle the stack (paper
     *  "Interleaved"). */
    Interleaved,
};

/**
 * Human-readable names for reports. embeddingName resolves to the
 * generator registry's display name, so a backend added to the
 * registry table is covered without a switch to extend.
 */
const char* embeddingName(EmbeddingKind kind);
const char* scheduleName(ExtractionSchedule schedule);

/**
 * Per-patch hardware cost of an embedding (DESIGN.md Sec. 6, validated
 * against the paper's Table II and the "11 transmons and 9 cavities"
 * claim).
 */
struct PatchCost
{
    int transmons = 0;
    int cavities = 0;

    /** Total qubit slots counting each depth-k cavity as k (Table II). */
    int totalQubits(int cavityDepth) const
    {
        return transmons + cavities * cavityDepth;
    }
};

/** Cost of one square distance-d patch under the given embedding. */
PatchCost patchCost(EmbeddingKind kind, int distance);

/**
 * Cost of a rectangular dx x dz patch (dx data columns = memory-X
 * distance, dz data rows = memory-Z distance; both odd, >= 3).
 * Resolved through the generator registry, so registered backends
 * price their own hardware.
 */
PatchCost patchCost(EmbeddingKind kind, int dx, int dz);

/**
 * A 2.5D device: a gridWidth x gridHeight array of patch-sized stacks,
 * each with cavityDepth modes per cavity, hosting logical qubits of the
 * given code distance.
 */
struct DeviceConfig
{
    EmbeddingKind embedding = EmbeddingKind::Compact;
    int distance = 3;
    int gridWidth = 1;
    int gridHeight = 1;
    int cavityDepth = 10;

    /**
     * Rectangular-patch overrides: when > 0 they replace `distance`
     * along their axis (patchDx columns, patchDz rows). 0 defers to
     * the embedding backend's shape policy -- the square paper patch
     * for the three paper embeddings, the narrow 3 x d biased-noise
     * patch for compact-rect -- so device costing always prices the
     * patch the generator actually builds.
     */
    int patchDx = 0;
    int patchDz = 0;

    /** Effective patch width (data columns / memory-X distance). */
    int effectiveDx() const;

    /** Effective patch height (data rows / memory-Z distance). */
    int effectiveDz() const;

    /** Number of stacks (patch positions). */
    int numStacks() const { return gridWidth * gridHeight; }

    /** Total transmons across the device. */
    int totalTransmons() const;

    /** Total cavities across the device. */
    int totalCavities() const;

    /**
     * Logical-qubit capacity. One mode per stack is reserved for
     * movement / lattice-surgery ancillas per the paper's Sec. III-D
     * when reserveFreeMode is true.
     */
    int logicalCapacity(bool reserveFreeMode = true) const;

    std::string str() const;
};

} // namespace vlq

#endif // VLQ_ARCH_DEVICE_H

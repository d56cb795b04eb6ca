#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "core/embedding.h"
#include "core/generator_registry.h"
#include "surface/layout.h"

namespace vlq {
namespace {

class MergeTest : public ::testing::TestWithParam<int>
{
};

TEST_P(MergeTest, UnmergedCountIsDMinusOne)
{
    SurfaceLayout layout(GetParam());
    CompactMerge merge = CompactMerge::build(layout);
    EXPECT_EQ(merge.numUnmerged, GetParam() - 1);
}

TEST_P(MergeTest, MergeTargetsAreUniqueAndCorrectCorner)
{
    SurfaceLayout layout(GetParam());
    CompactMerge merge = CompactMerge::build(layout);
    std::set<int32_t> targets;
    for (uint32_t c = 0; c < layout.plaquettes().size(); ++c) {
        int32_t m = merge.mergedData[c];
        if (m < 0) {
            EXPECT_GE(merge.unmergedIndex[c], 0);
            continue;
        }
        EXPECT_TRUE(targets.insert(m).second) << "data transmon reused";
        const Plaquette& p = layout.plaquettes()[c];
        int corner = (p.basis == CheckBasis::Z) ? NE : SW;
        EXPECT_EQ(p.corner[static_cast<size_t>(corner)], m);
        EXPECT_EQ(merge.checkAtData[static_cast<size_t>(m)],
                  static_cast<int32_t>(c));
    }
}

TEST_P(MergeTest, TransmonCountMatchesPatchCost)
{
    int d = GetParam();
    SurfaceLayout layout(d);
    CompactMerge merge = CompactMerge::build(layout);
    // data transmons + unmerged ancilla transmons
    int transmons = layout.numData() + merge.numUnmerged;
    EXPECT_EQ(transmons, d * d + d - 1);
}

INSTANTIATE_TEST_SUITE_P(Distances, MergeTest,
                         ::testing::Values(3, 5, 7, 9));

TEST(CompactScheduleTest, ConflictFreeWithBenignHooksOnEveryOddShape)
{
    // The fixed table is wire-disjoint and merge-safe on every odd patch
    // from 3x3 to 17x17, and both orders keep their hooks benign.
    const CompactSchedule sched;
    EXPECT_EQ(sched.hookScore(), 2);
    for (int dx = 3; dx <= 17; dx += 2) {
        for (int dz = 3; dz <= 17; dz += 2) {
            SurfaceLayout layout(dx, dz);
            CompactMerge merge = CompactMerge::build(layout);
            EXPECT_TRUE(sched.conflictFree(layout, merge))
                << dx << "x" << dz;
        }
    }
}

TEST(CompactScheduleTest, MeasuresStabilizersOnSquaresAndRectangles)
{
    // Noiseless quiescence on squares 3..11 and on rectangles of either
    // orientation: the interleaved windows still measure each check's
    // stabilizer.
    const CompactSchedule sched;
    std::vector<std::pair<int, int>> shapes = {
        {3, 7}, {7, 3}, {5, 9}, {9, 5}, {3, 11}, {11, 3}};
    for (int d = 3; d <= 11; d += 2)
        shapes.emplace_back(d, d);
    for (const auto& [dx, dz] : shapes) {
        SurfaceLayout layout(dx, dz);
        EXPECT_TRUE(sched.measuresStabilizers(layout)) << dx << "x" << dz;
    }
}

TEST(CompactScheduleTest, ScheduleValidAtDistanceFive)
{
    SurfaceLayout layout(5);
    const CompactSchedule sched;
    CompactMerge merge = CompactMerge::build(layout);
    EXPECT_TRUE(sched.conflictFree(layout, merge));
    EXPECT_TRUE(sched.measuresStabilizers(layout));
}

TEST(CompactScheduleTest, ScheduleValidAtDistanceSeven)
{
    SurfaceLayout layout(7);
    const CompactSchedule sched;
    CompactMerge merge = CompactMerge::build(layout);
    EXPECT_TRUE(sched.conflictFree(layout, merge));
}

TEST(CompactScheduleTest, WindowConstraintsHold)
{
    // The merged-data TT partners never need a transmon during its
    // ancilla window (redundant with conflictFree, but recomputes each
    // step's slot from the table directly).
    SurfaceLayout layout(5);
    const CompactSchedule sched;
    CompactMerge merge = CompactMerge::build(layout);
    const auto& plaquettes = layout.plaquettes();
    for (uint32_t c = 0; c < plaquettes.size(); ++c) {
        int32_t m = merge.mergedData[c];
        if (m < 0)
            continue;
        int start = sched.startSlot[sched.groupOf(plaquettes[c])];
        for (const auto& p2 : plaquettes) {
            if (&p2 == &plaquettes[c])
                continue;
            for (int corner = 0; corner < 4; ++corner) {
                if (p2.corner[static_cast<size_t>(corner)] != m)
                    continue;
                int step = 0;
                const auto& order = sched.orderOf(p2.basis);
                for (int s = 0; s < 4; ++s)
                    if (order[static_cast<size_t>(s)] == corner)
                        step = s;
                int slot = (sched.startSlot[sched.groupOf(p2)] + step) % 8;
                int rel = ((slot - start) % 8 + 8) % 8;
                EXPECT_GT(rel, 3) << "check " << c << " window clash";
            }
        }
    }
}

TEST(CompactScheduleTest, GroupStartsMatchPaperPattern)
{
    // Fig. 10: X groups start at slots 0 and 4, Z groups at 2 and 6.
    const CompactSchedule sched;
    EXPECT_EQ(sched.startSlot[CompactSchedule::A], 0);
    EXPECT_EQ(sched.startSlot[CompactSchedule::B], 4);
    EXPECT_EQ(sched.startSlot[CompactSchedule::C], 2);
    EXPECT_EQ(sched.startSlot[CompactSchedule::D], 6);
}

TEST(CompactScheduleTest, SameTypeGroupsPartitionChecks)
{
    SurfaceLayout layout(5);
    const CompactSchedule sched;
    int counts[4] = {0, 0, 0, 0};
    for (const auto& p : layout.plaquettes()) {
        CompactSchedule::Group g = sched.groupOf(p);
        ++counts[g];
        if (p.basis == CheckBasis::X)
            EXPECT_TRUE(g == CompactSchedule::A || g == CompactSchedule::B);
        else
            EXPECT_TRUE(g == CompactSchedule::C || g == CompactSchedule::D);
    }
    for (int g = 0; g < 4; ++g)
        EXPECT_GT(counts[g], 0) << "group " << g << " empty";
}

TEST(CompactScheduleTest, DefaultOrdersContainEachCornerOnce)
{
    const CompactSchedule sched;
    std::set<int> sx(sched.orderX.begin(), sched.orderX.end());
    std::set<int> sz(sched.orderZ.begin(), sched.orderZ.end());
    EXPECT_EQ(sx.size(), 4u);
    EXPECT_EQ(sz.size(), 4u);
}

// ---------------------------------------------------------------------------
// Rectangular dx x dz patches
// ---------------------------------------------------------------------------

class RectMergeTest
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(RectMergeTest, UnmergedCountMatchesBoundaryFormula)
{
    auto [dx, dz] = GetParam();
    SurfaceLayout layout(dx, dz);
    CompactMerge merge = CompactMerge::build(layout);
    EXPECT_EQ(merge.numUnmerged, (dx - 1) / 2 + (dz - 1) / 2);
}

TEST_P(RectMergeTest, MergeTargetsStayUniqueOnRectangles)
{
    auto [dx, dz] = GetParam();
    SurfaceLayout layout(dx, dz);
    CompactMerge merge = CompactMerge::build(layout);
    std::set<int32_t> targets;
    int merged = 0;
    for (uint32_t c = 0; c < layout.plaquettes().size(); ++c) {
        int32_t m = merge.mergedData[c];
        if (m < 0) {
            EXPECT_GE(merge.unmergedIndex[c], 0);
            continue;
        }
        ++merged;
        EXPECT_TRUE(targets.insert(m).second) << "data transmon reused";
        const Plaquette& p = layout.plaquettes()[c];
        int corner = (p.basis == CheckBasis::Z) ? NE : SW;
        EXPECT_EQ(p.corner[static_cast<size_t>(corner)], m);
    }
    EXPECT_EQ(merged + merge.numUnmerged, layout.numChecks());
}

TEST_P(RectMergeTest, TransmonCountMatchesRectPatchCost)
{
    auto [dx, dz] = GetParam();
    SurfaceLayout layout(dx, dz);
    CompactMerge merge = CompactMerge::build(layout);
    PatchCost cost = patchCost(EmbeddingKind::CompactRect, dx, dz);
    EXPECT_EQ(layout.numData() + merge.numUnmerged, cost.transmons);
    EXPECT_EQ(layout.numData(), cost.cavities);
}

TEST_P(RectMergeTest, SolverFindsValidRectSchedule)
{
    auto [dx, dz] = GetParam();
    SurfaceLayout layout(dx, dz);
    const CompactSchedule sched;
    CompactMerge merge = CompactMerge::build(layout);
    EXPECT_TRUE(sched.conflictFree(layout, merge));
    EXPECT_TRUE(sched.measuresStabilizers(layout));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RectMergeTest,
    ::testing::Values(std::pair<int, int>{3, 5},
                      std::pair<int, int>{5, 3},
                      std::pair<int, int>{3, 7},
                      std::pair<int, int>{5, 9}));

TEST(RectLayoutTest, LogicalWeightsFollowPatchShape)
{
    SurfaceLayout layout(3, 7);
    EXPECT_EQ(layout.width(), 3);
    EXPECT_EQ(layout.height(), 7);
    EXPECT_EQ(layout.distance(), 3);
    EXPECT_EQ(layout.numData(), 21);
    EXPECT_EQ(layout.numChecks(), 20);
    // Logical Z runs along a row (weight dx), logical X down a column
    // (weight dz).
    EXPECT_EQ(layout.logicalZSupport().size(), 3u);
    EXPECT_EQ(layout.logicalXSupport().size(), 7u);
}

TEST(RectLayoutTest, SquareConstructorMatchesRectangular)
{
    SurfaceLayout sq(5);
    SurfaceLayout rect(5, 5);
    ASSERT_EQ(sq.plaquettes().size(), rect.plaquettes().size());
    for (size_t i = 0; i < sq.plaquettes().size(); ++i) {
        EXPECT_EQ(sq.plaquettes()[i].basis, rect.plaquettes()[i].basis);
        EXPECT_EQ(sq.plaquettes()[i].cx, rect.plaquettes()[i].cx);
        EXPECT_EQ(sq.plaquettes()[i].cy, rect.plaquettes()[i].cy);
        EXPECT_EQ(sq.plaquettes()[i].data, rect.plaquettes()[i].data);
    }
}

TEST(CompactScheduleTest, BrokenScheduleDetected)
{
    // Each check rejects a variant of the table that breaks what it
    // guards, so the sweeps above can fail.
    SurfaceLayout layout(5);
    CompactMerge merge = CompactMerge::build(layout);

    // Both Z groups at one start: a neighbor loads a data qubit while
    // that qubit's transmon is a merged check's ancilla.
    CompactSchedule sameZStart;
    sameZStart.startSlot[CompactSchedule::D] =
        sameZStart.startSlot[CompactSchedule::C];
    EXPECT_FALSE(sameZStart.conflictFree(layout, merge));

    // Z groups in the X phases: merge conflicts, and the overlapping X
    // and Z windows no longer measure the stabilizers.
    CompactSchedule overlapped;
    overlapped.startSlot = {0, 4, 0, 4};
    EXPECT_FALSE(overlapped.conflictFree(layout, merge));
    EXPECT_FALSE(overlapped.measuresStabilizers(layout));

    // Z checks in the X order: conflict-free, but the interleaved
    // windows no longer measure the stabilizers.
    CompactSchedule zInXOrder;
    zInXOrder.orderZ = zInXOrder.orderX;
    EXPECT_TRUE(zInXOrder.conflictFree(layout, merge));
    EXPECT_FALSE(zInXOrder.measuresStabilizers(layout));

    // X order NW, SE, NE, SW: still measures the stabilizers, but loads
    // a data qubit while its transmon serves as an ancilla.
    CompactSchedule xCrossed;
    xCrossed.orderX = {NW, SE, NE, SW};
    EXPECT_FALSE(xCrossed.conflictFree(layout, merge));
    EXPECT_TRUE(xCrossed.measuresStabilizers(layout));
}

} // namespace
} // namespace vlq

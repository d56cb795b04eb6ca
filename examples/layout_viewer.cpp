/**
 * @file
 * Layout viewer: the textual counterpart of the paper's Figs. 2 and 7.
 * Shows the rotated surface code, the Compact merge (Z checks into
 * their NE data transmon, X checks into their SW), the extraction
 * orders, and the Fig. 10 Compact schedule for a chosen patch (one
 * fixed table, the same on every shape).
 *
 * Usage: layout_viewer [distance]       (square patch)
 *        layout_viewer [dx] [dz]        (rectangular dx x dz patch)
 *
 * Arguments are validated: non-numeric, even, or < 3 input -- and any
 * extra argument -- prints the usage instead of silently rendering a
 * wrong layout.
 */
#include <iostream>

#include "core/embedding.h"
#include "surface/render.h"
#include "util/env.h"

using namespace vlq;

namespace {

int
usage(const char* argv0, const std::string& problem)
{
    std::cerr << "error: " << problem << "\n"
              << "usage: " << argv0 << " [distance]    (square patch)\n"
              << "       " << argv0 << " [dx] [dz]     (rectangular)\n"
              << "  each dimension must be an odd integer >= 3\n";
    return 1;
}

/** Parse one patch dimension or return -1 (after printing usage). */
int
parseDimension(const char* argv0, const char* text, const char* label)
{
    auto parsed = parseInt64(text);
    if (!parsed || *parsed < 3 || *parsed % 2 == 0 || *parsed > 99) {
        usage(argv0, std::string(label) + " must be an odd integer in "
              "3..99, got '" + text + "'");
        return -1;
    }
    return static_cast<int>(*parsed);
}

} // namespace

int
main(int argc, char** argv)
{
    int dx = 5;
    int dz = 5;
    if (argc > 3) {
        return usage(argv[0], "unexpected extra argument '"
                     + std::string(argv[3]) + "'");
    }
    if (argc > 1) {
        dx = parseDimension(argv[0], argv[1], "distance");
        if (dx < 0)
            return 1;
        dz = dx;
    }
    if (argc > 2) {
        dz = parseDimension(argv[0], argv[2], "dz");
        if (dz < 0)
            return 1;
    }
    SurfaceLayout layout(dx, dz);

    std::cout << "Rotated surface code, " << dx << " x " << dz
              << " patch (o = data, Z/X = checks; paper Fig. 2):\n\n"
              << LayoutRenderer::render(layout);

    std::cout << "\nCompact embedding (z/x = ancilla merged into that"
                 " data transmon, * = dedicated boundary ancilla;"
                 " paper Fig. 7):\n\n"
              << LayoutRenderer::renderCompact(layout);

    CompactMerge merge = CompactMerge::build(layout);
    std::cout << "\ntransmons: " << layout.numData() + merge.numUnmerged
              << " (" << layout.numData() << " data + "
              << merge.numUnmerged << " boundary ancillas), cavities: "
              << layout.numData() << "\n";

    std::cout << "\nExtraction order, Z checks (digits = step each data"
                 " is touched):\n\n"
              << LayoutRenderer::renderOrder(layout, CheckBasis::Z);
    std::cout << "\nExtraction order, X checks:\n\n"
              << LayoutRenderer::renderOrder(layout, CheckBasis::X);

    const CompactSchedule sched;
    const char* groupNames[4] = {"A", "B", "C", "D"};
    std::cout << "\nCompact schedule (paper Fig. 10; the same on every"
                 " patch shape):\n"
              << "  group start slots:";
    for (int g = 0; g < 4; ++g)
        std::cout << " " << groupNames[g] << "="
                  << sched.startSlot[static_cast<size_t>(g)];
    auto cornerName = [](int c) {
        switch (c) {
          case NW: return "NW";
          case NE: return "NE";
          case SW: return "SW";
          default: return "SE";
        }
    };
    std::cout << "\n  X corner order:";
    for (int s = 0; s < 4; ++s)
        std::cout << " " << cornerName(sched.orderX[static_cast<size_t>(s)]);
    std::cout << "\n  Z corner order:";
    for (int s = 0; s < 4; ++s)
        std::cout << " " << cornerName(sched.orderZ[static_cast<size_t>(s)]);
    std::cout << "\n  hook score: " << sched.hookScore() << "/2\n";
    return 0;
}
